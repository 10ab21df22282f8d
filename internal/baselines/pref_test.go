package baselines

import (
	"math/rand"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

func filterRows(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

func oracle(d *tpch.Dataset, in *tpch.Instance) int {
	lf := filterRows(d.Lineitem, in.LinePreds)
	of := filterRows(d.Orders, in.OrdPreds)
	cf := filterRows(d.Customer, in.CustPreds)
	pf := filterRows(d.Part, in.PartPreds)
	lw := tpch.LineitemSchema.NumCols()
	switch in.Template {
	case tpch.Q6:
		return len(lf)
	case tpch.Q3, tpch.Q5, tpch.Q10:
		lo := exec.NestedLoopJoin(lf, of, tpch.LOrderKey, tpch.OOrderKey)
		return len(exec.NestedLoopJoin(lo, cf, lw+tpch.OCustKey, tpch.CCustKey))
	case tpch.Q8:
		lp := exec.NestedLoopJoin(lf, pf, tpch.LPartKey, tpch.PPartKey)
		oc := exec.NestedLoopJoin(of, cf, tpch.OCustKey, tpch.CCustKey)
		return len(exec.NestedLoopJoin(lp, oc, tpch.LOrderKey, tpch.OOrderKey))
	case tpch.Q12:
		return len(exec.NestedLoopJoin(lf, of, tpch.LOrderKey, tpch.OOrderKey))
	case tpch.Q14, tpch.Q19:
		return len(exec.NestedLoopJoin(lf, pf, tpch.LPartKey, tpch.PPartKey))
	}
	return -1
}

func TestPREFCorrectOnAllTemplates(t *testing.T) {
	d := tpch.Generate(0.0004, 5)
	p := BuildPREF(d, 8)
	rng := rand.New(rand.NewSource(2))
	for _, tpl := range tpch.AllTemplates {
		in := tpch.NewInstance(tpl, d, rng)
		var meter cluster.Meter
		got, err := p.Run(in, &meter)
		if err != nil {
			t.Fatalf("%s: %v", tpl, err)
		}
		if want := oracle(d, in); got != want {
			t.Errorf("%s: PREF returned %d rows, oracle %d", tpl, got, want)
		}
		c := meter.Snapshot()
		if c.ShuffleRows != 0 || c.IntermediateRows != 0 {
			t.Errorf("%s: PREF must never shuffle: %+v", tpl, c)
		}
		if c.ScanLocal == 0 {
			t.Errorf("%s: PREF metered no reads", tpl)
		}
	}
}

func TestPREFPartitionLocality(t *testing.T) {
	// Every lineitem row must land in the same partition as its order.
	d := tpch.Generate(0.0005, 9)
	k := 8
	p := BuildPREF(d, k)
	orderPart := make(map[int64]int)
	for i := 0; i < k; i++ {
		for _, o := range p.ord[i] {
			orderPart[o[tpch.OOrderKey].Int64()] = i
		}
	}
	for i := 0; i < k; i++ {
		for _, l := range p.line[i] {
			if orderPart[l[tpch.LOrderKey].Int64()] != i {
				t.Fatalf("lineitem not co-located with its order")
			}
		}
	}
	// Customer replicas must cover every referencing partition.
	for i := 0; i < k; i++ {
		custs := make(map[int64]bool)
		for _, c := range p.cust[i] {
			custs[c[tpch.CCustKey].Int64()] = true
		}
		for _, o := range p.ord[i] {
			if !custs[o[tpch.OCustKey].Int64()] {
				t.Fatalf("partition %d missing replicated customer %d", i, o[tpch.OCustKey].Int64())
			}
		}
	}
}

func TestPREFDegenerateK(t *testing.T) {
	d := tpch.Generate(0.0003, 3)
	p := BuildPREF(d, 0) // clamps to 1
	if p.K != 1 {
		t.Fatalf("K = %d, want 1", p.K)
	}
	rng := rand.New(rand.NewSource(1))
	in := tpch.NewInstance(tpch.Q12, d, rng)
	var meter cluster.Meter
	got, err := p.Run(in, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(d, in); got != want {
		t.Errorf("K=1 PREF: %d rows, oracle %d", got, want)
	}
}

func TestPREFZonePruning(t *testing.T) {
	// With one partition per ~order, an orderkey point query should not
	// scan every partition.
	d := tpch.Generate(0.0005, 4)
	p := BuildPREF(d, 32)
	in := &tpch.Instance{
		Template: tpch.Q12,
		LinePreds: []predicate.Predicate{
			predicate.NewCmp(tpch.LOrderKey, predicate.LE, d.Lineitem[0][tpch.LOrderKey]),
		},
	}
	var meter cluster.Meter
	if _, err := p.Run(in, &meter); err != nil {
		t.Fatal(err)
	}
	full := float64(len(d.Lineitem) + len(d.Orders))
	if c := meter.Snapshot(); c.ScanLocal >= full {
		t.Errorf("key-range predicate should prune partitions: read %.0f of %.0f", c.ScanLocal, full)
	}
}
