package tpch

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(0.001, 42) // ≈1500 orders → ≈6000 lineitems
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.0005, 7)
	b := Generate(0.0005, 7)
	if len(a.Lineitem) != len(b.Lineitem) || len(a.Orders) != len(b.Orders) {
		t.Fatalf("sizes differ across identical seeds")
	}
	for i := range a.Lineitem {
		for c := range a.Lineitem[i] {
			if value.Compare(a.Lineitem[i][c], b.Lineitem[i][c]) != 0 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestGenerateShape(t *testing.T) {
	d := smallDataset(t)
	if len(d.Region) != NumRegions || len(d.Nation) != NumNations {
		t.Fatalf("dimension tables wrong: %d regions, %d nations", len(d.Region), len(d.Nation))
	}
	// Lineitem per order averages ≈4 (1..7 uniform).
	ratio := float64(len(d.Lineitem)) / float64(len(d.Orders))
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("lineitem/order ratio = %.2f, want ≈4", ratio)
	}
	// Schema conformance on every table.
	check := func(name string, rows []tuple.Tuple, sch interface{ NumCols() int }) {
		for i, r := range rows {
			if len(r) != sch.NumCols() {
				t.Fatalf("%s row %d arity %d != %d", name, i, len(r), sch.NumCols())
			}
		}
	}
	check("lineitem", d.Lineitem, LineitemSchema)
	check("orders", d.Orders, OrdersSchema)
	check("customer", d.Customer, CustomerSchema)
	check("part", d.Part, PartSchema)
	check("supplier", d.Supplier, SupplierSchema)
	for _, r := range d.Lineitem {
		if err := r.Conforms(LineitemSchema); err != nil {
			t.Fatalf("lineitem row: %v", err)
		}
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := smallDataset(t)
	orderKeys := make(map[int64]bool, len(d.Orders))
	for _, o := range d.Orders {
		orderKeys[o[OOrderKey].Int64()] = true
	}
	custKeys := make(map[int64]bool, len(d.Customer))
	for _, c := range d.Customer {
		custKeys[c[CCustKey].Int64()] = true
	}
	partKeys := make(map[int64]bool, len(d.Part))
	for _, p := range d.Part {
		partKeys[p[PPartKey].Int64()] = true
	}
	for _, l := range d.Lineitem {
		if !orderKeys[l[LOrderKey].Int64()] {
			t.Fatalf("lineitem references missing order %d", l[LOrderKey].Int64())
		}
		if !partKeys[l[LPartKey].Int64()] {
			t.Fatalf("lineitem references missing part %d", l[LPartKey].Int64())
		}
	}
	for _, o := range d.Orders {
		if !custKeys[o[OCustKey].Int64()] {
			t.Fatalf("order references missing customer %d", o[OCustKey].Int64())
		}
	}
}

func TestDateDomains(t *testing.T) {
	d := smallDataset(t)
	for _, l := range d.Lineitem {
		ship := l[LShipDate].Int64()
		receipt := l[LReceiptDate].Int64()
		if ship < StartDate || ship > EndDate {
			t.Fatalf("shipdate %d outside domain", ship)
		}
		if receipt <= ship {
			t.Fatalf("receiptdate must follow shipdate")
		}
	}
	for _, o := range d.Orders {
		od := o[OOrderDate].Int64()
		if od < StartDate || od >= EndDate-150 {
			t.Fatalf("orderdate %d outside dbgen domain", od)
		}
	}
}

func TestNationsOfRegion(t *testing.T) {
	d := smallDataset(t)
	total := 0
	for r := int64(0); r < NumRegions; r++ {
		total += len(d.NationsOfRegion(r))
	}
	if total != NumNations {
		t.Fatalf("regions cover %d nations, want %d", total, NumNations)
	}
}

func loadFixture(t *testing.T, d *Dataset, joinAttrs map[string]int) (*Tables, *planner.Runner, *cluster.Meter) {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	tb, err := LoadAll(store, d, LoadConfig{RowsPerBlock: 512, JoinAttrs: joinAttrs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	meter := &cluster.Meter{}
	return tb, planner.NewRunner(exec.New(store, meter), cluster.Default()), meter
}

func filterRows(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

// oracle computes each template's expected result cardinality with
// nested loops over the raw rows.
func oracle(d *Dataset, in *Instance) int {
	lf := filterRows(d.Lineitem, in.LinePreds)
	of := filterRows(d.Orders, in.OrdPreds)
	cf := filterRows(d.Customer, in.CustPreds)
	pf := filterRows(d.Part, in.PartPreds)
	switch in.Template {
	case Q6:
		return len(lf)
	case Q3, Q5, Q10:
		lo := exec.NestedLoopJoin(lf, of, LOrderKey, OOrderKey)
		return len(exec.NestedLoopJoin(lo, cf, LineitemSchema.NumCols()+OCustKey, CCustKey))
	case Q8:
		lp := exec.NestedLoopJoin(lf, pf, LPartKey, PPartKey)
		oc := exec.NestedLoopJoin(of, cf, OCustKey, CCustKey)
		return len(exec.NestedLoopJoin(lp, oc, LOrderKey, OOrderKey))
	case Q12:
		return len(exec.NestedLoopJoin(lf, of, LOrderKey, OOrderKey))
	case Q14, Q19:
		return len(exec.NestedLoopJoin(lf, pf, LPartKey, PPartKey))
	}
	return -1
}

// Every template must produce exactly the oracle cardinality through
// the full planner/executor stack, on both random and co-partitioned
// layouts.
func TestTemplatesMatchOracle(t *testing.T) {
	d := Generate(0.0004, 11) // keep oracle nested loops fast
	layouts := []map[string]int{
		nil, // random upfront partitioning
		{"lineitem": LOrderKey, "orders": OOrderKey, "customer": CCustKey, "part": PPartKey},
	}
	for li, layout := range layouts {
		tb, runner, _ := loadFixture(t, d, layout)
		rng := rand.New(rand.NewSource(5))
		for _, tpl := range AllTemplates {
			in := NewInstance(tpl, d, rng)
			comp, err := runner.Compile(in.Plan(tb))
			if err != nil {
				t.Fatalf("layout %d %s: %v", li, tpl, err)
			}
			rows, err := exec.Collect(comp.Root)
			if err != nil {
				t.Fatalf("layout %d %s: %v", li, tpl, err)
			}
			want := oracle(d, in)
			if len(rows) != want {
				t.Errorf("layout %d %s: %d rows, oracle %d", li, tpl, len(rows), want)
			}
		}
	}
}

// TestInstanceUsesConsistent pins the votes planner.Uses derives from
// every template's plan: leaves left to right, each table on the
// column of the first join that reads it — so q8's bushy plan votes
// orders on o_custkey — and each carrying its Scan's predicate slice.
func TestInstanceUsesConsistent(t *testing.T) {
	d := smallDataset(t)
	tb, _, _ := loadFixture(t, d, nil)
	type vote struct {
		table string
		attr  int
	}
	want := map[Template][]vote{
		Q3:  {{"lineitem", LOrderKey}, {"orders", OOrderKey}, {"customer", CCustKey}},
		Q5:  {{"lineitem", LOrderKey}, {"orders", OOrderKey}, {"customer", CCustKey}},
		Q6:  {{"lineitem", -1}},
		Q8:  {{"lineitem", LPartKey}, {"part", PPartKey}, {"orders", OCustKey}, {"customer", CCustKey}},
		Q10: {{"lineitem", LOrderKey}, {"orders", OOrderKey}, {"customer", CCustKey}},
		Q12: {{"lineitem", LOrderKey}, {"orders", OOrderKey}},
		Q14: {{"lineitem", LPartKey}, {"part", PPartKey}},
		Q19: {{"lineitem", LPartKey}, {"part", PPartKey}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range AllTemplates {
		for i := 0; i < 20; i++ {
			in := NewInstance(tpl, d, rng)
			preds := map[string][]predicate.Predicate{
				"lineitem": in.LinePreds, "orders": in.OrdPreds,
				"customer": in.CustPreds, "part": in.PartPreds,
			}
			uses := planner.Uses(in.Plan(tb))
			var got []vote
			for _, u := range uses {
				got = append(got, vote{u.Table.Name, u.JoinAttr})
				if p := preds[u.Table.Name]; len(u.Preds) != len(p) || len(p) > 0 && &u.Preds[0] != &p[0] {
					t.Fatalf("%s: %s votes predicates %v, not the Scan's slice %v", tpl, u.Table.Name, u.Preds, p)
				}
			}
			if !reflect.DeepEqual(got, want[tpl]) {
				t.Fatalf("%s: votes %v, want %v", tpl, got, want[tpl])
			}
		}
	}
}

func TestTemplateSelectivityShape(t *testing.T) {
	// The paper motivates template choice by predicate selectivity: q19 is
	// highly selective on lineitem, q5 not at all.
	d := smallDataset(t)
	rng := rand.New(rand.NewSource(3))
	q19 := NewInstance(Q19, d, rng)
	q5 := NewInstance(Q5, d, rng)
	selQ19 := float64(len(filterRows(d.Lineitem, q19.LinePreds))) / float64(len(d.Lineitem))
	selQ5 := float64(len(filterRows(d.Lineitem, q5.LinePreds))) / float64(len(d.Lineitem))
	if selQ5 != 1.0 {
		t.Errorf("q5 must have no lineitem predicate; selectivity %.2f", selQ5)
	}
	if selQ19 > 0.2 {
		t.Errorf("q19 lineitem selectivity %.2f, want < 0.2", selQ19)
	}
}

func TestHyperBeatsShuffleOnConvergedLayout(t *testing.T) {
	// The Fig. 12 headline at unit-test scale: with lineitem/orders
	// co-partitioned on orderkey, q12 with hyper-join must beat q12 with
	// forced shuffle join in cost units.
	d := Generate(0.002, 13)
	layout := map[string]int{"lineitem": LOrderKey, "orders": OOrderKey}
	tb, runner, meter := loadFixture(t, d, layout)
	rng := rand.New(rand.NewSource(8))
	in := NewInstance(Q12, d, rng)
	model := cluster.Default()

	run := func() cluster.Counters {
		comp, err := runner.Compile(in.Plan(tb))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(comp.Root); err != nil {
			t.Fatal(err)
		}
		return meter.Reset()
	}
	hyper := run()
	runner.ForceShuffle = true
	shuffle := run()
	if hyper.SimSeconds(model) >= shuffle.SimSeconds(model) {
		t.Errorf("hyper %.1f should beat shuffle %.1f on co-partitioned q12",
			hyper.SimSeconds(model), shuffle.SimSeconds(model))
	}
}

func TestCountsFloors(t *testing.T) {
	l, o, c, p, s := Counts(0)
	if o < 100 || c < 30 || p < 40 || s < 10 || l < o {
		t.Errorf("floors not applied: %d %d %d %d %d", l, o, c, p, s)
	}
}
