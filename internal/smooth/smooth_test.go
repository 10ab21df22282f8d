package smooth

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
	schema.Column{Name: "orderkey", Kind: value.Int},
	schema.Column{Name: "partkey", Kind: value.Int},
	schema.Column{Name: "shipdate", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(10000)),
			value.NewInt(rng.Int63n(2000)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	return rows
}

func setup(t *testing.T) (*core.Table, *Manager) {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	rows := genRows(2048, 1)
	tbl, err := core.Load(store, "lineitem", sch, rows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 1, JoinAttr: 0, // start on orderkey
	})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWindow(10)
	return tbl, New(w, 99)
}

func totalRows(tbl *core.Table) int {
	total := 0
	for _, i := range tbl.LiveTrees() {
		total += tbl.RowsUnder(i)
	}
	return total
}

func TestNoJoinAttrIsNoop(t *testing.T) {
	tbl, m := setup(t)
	q := workload.Query{JoinAttr: -1}
	m.Window.Add(q)
	var meter cluster.Meter
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedRows != 0 || res.CreatedTree != -1 {
		t.Errorf("no-join query should not repartition: %+v", res)
	}
}

func TestNewAttributeCreatesTreeAndMovesSlice(t *testing.T) {
	tbl, m := setup(t)
	q := workload.Query{JoinAttr: 1} // partkey: new
	m.Window.Add(q)
	var meter cluster.Meter
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatedTree < 0 {
		t.Fatalf("expected new tree: %+v", res)
	}
	nt := tbl.Trees[res.CreatedTree].Tree
	if nt.JoinAttr != 1 {
		t.Errorf("new tree join attr = %d, want 1", nt.JoinAttr)
	}
	// 1/|W| = 10% of 2048 ≈ 205 rows, plus-or-minus one bucket.
	if res.MovedRows < 100 || res.MovedRows > 450 {
		t.Errorf("moved %d rows, want ≈205 (1/|W| of the table)", res.MovedRows)
	}
	if totalRows(tbl) != 2048 {
		t.Fatalf("rows lost during smooth step: %d", totalRows(tbl))
	}
	c := meter.Snapshot()
	if int(c.RepartRows) != res.MovedRows {
		t.Errorf("meter repart rows %v != moved %d", c.RepartRows, res.MovedRows)
	}
}

func TestFMinGatesTreeCreation(t *testing.T) {
	tbl, m := setup(t)
	m.FMin = 3
	var meter cluster.Meter
	for i := 0; i < 2; i++ {
		q := workload.Query{JoinAttr: 1}
		m.Window.Add(q)
		res, err := m.Step(tbl, q, &meter)
		if err != nil {
			t.Fatal(err)
		}
		if res.CreatedTree >= 0 {
			t.Fatalf("tree created before fmin queries (i=%d)", i)
		}
	}
	q := workload.Query{JoinAttr: 1}
	m.Window.Add(q)
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatedTree < 0 {
		t.Fatalf("tree not created at fmin")
	}
	// fmin/|W| = 30% of data moves at creation.
	if res.MovedRows < 400 || res.MovedRows > 850 {
		t.Errorf("moved %d rows at creation, want ≈614 (fmin/|W|)", res.MovedRows)
	}
}

func TestShareTracksWindowFraction(t *testing.T) {
	tbl, m := setup(t)
	var meter cluster.Meter
	// Run 10 partkey queries; by the end the window is 100% partkey and
	// the data should have fully shifted.
	for i := 0; i < 10; i++ {
		q := workload.Query{JoinAttr: 1}
		m.Window.Add(q)
		if _, err := m.Step(tbl, q, &meter); err != nil {
			t.Fatal(err)
		}
		if totalRows(tbl) != 2048 {
			t.Fatalf("rows lost at step %d", i)
		}
		// Invariant: new tree's share never exceeds the window fraction by
		// more than one bucket's worth.
		tIdx := tbl.TreeFor(1)
		if tIdx >= 0 {
			share := float64(tbl.RowsUnder(tIdx)) / 2048
			frac := float64(m.Window.CountJoinAttr(1)) / float64(m.Window.Cap())
			if share > frac+0.2 {
				t.Errorf("step %d: share %.2f races ahead of window fraction %.2f", i, share, frac)
			}
		}
	}
	if !Converged(tbl, 1) {
		t.Errorf("after 10/10 partkey queries the table should converge; trees=%v", tbl.LiveTrees())
	}
}

func TestOldTreeDroppedWhenDrained(t *testing.T) {
	tbl, m := setup(t)
	var meter cluster.Meter
	for i := 0; i < 12; i++ {
		q := workload.Query{JoinAttr: 1}
		m.Window.Add(q)
		res, err := m.Step(tbl, q, &meter)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.DroppedTrees) > 0 {
			// The original orderkey tree (index 0) must be the one dropped.
			if res.DroppedTrees[0] != 0 {
				t.Errorf("dropped tree %d, want 0", res.DroppedTrees[0])
			}
			return
		}
	}
	t.Errorf("old tree never dropped after full shift")
}

func TestMixedWorkloadKeepsBothTrees(t *testing.T) {
	tbl, m := setup(t)
	var meter cluster.Meter
	// Alternate orderkey and partkey queries: both trees should persist
	// with roughly half the data each ("multiple trees will be preserved",
	// §5.2).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		attr := 0
		if rng.Intn(2) == 1 {
			attr = 1
		}
		q := workload.Query{JoinAttr: attr}
		m.Window.Add(q)
		if _, err := m.Step(tbl, q, &meter); err != nil {
			t.Fatal(err)
		}
	}
	i0, i1 := tbl.TreeFor(0), tbl.TreeFor(1)
	if i0 < 0 || i1 < 0 {
		t.Fatalf("both trees should be live: %v", tbl.LiveTrees())
	}
	s0 := float64(tbl.RowsUnder(i0)) / 2048
	s1 := float64(tbl.RowsUnder(i1)) / 2048
	if s0 < 0.15 || s1 < 0.15 {
		t.Errorf("mixed workload shares too skewed: %.2f vs %.2f", s0, s1)
	}
	if totalRows(tbl) != 2048 {
		t.Errorf("rows lost: %d", totalRows(tbl))
	}
}

func TestStepOnEmptyWindowAttr(t *testing.T) {
	tbl, m := setup(t)
	// Query whose join attr matches the existing tree: no movement needed
	// (share is already 100% ≥ n/|W|).
	q := workload.Query{JoinAttr: 0}
	m.Window.Add(q)
	var meter cluster.Meter
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedRows != 0 {
		t.Errorf("fully converged table should not move rows: %+v", res)
	}
}

func TestConvergedHelper(t *testing.T) {
	tbl, _ := setup(t)
	if !Converged(tbl, 0) {
		t.Errorf("single tree on attr 0 should report converged")
	}
	if Converged(tbl, 1) {
		t.Errorf("wrong attribute should not report converged")
	}
}

// selPreds builds a steady selection-predicate list for the auto-level
// tests.
func selPreds() []predicate.Predicate {
	return []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(500))}
}
