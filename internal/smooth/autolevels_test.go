package smooth

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/workload"
)

// The §7.4 extension: with AutoJoinLevels, a predicate-free window
// produces an all-join tree; a predicate-heavy window keeps selection
// levels.
func TestAutoJoinLevelsNonSelectiveWorkload(t *testing.T) {
	tbl, m := setup(t)
	m.AutoJoinLevels = true
	q := workload.Query{JoinAttr: 1} // no predicates
	m.Window.Add(q)
	var meter cluster.Meter
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatedTree < 0 {
		t.Fatalf("tree not created")
	}
	nt := tbl.Trees[res.CreatedTree].Tree
	if nt.JoinLevels != nt.Depth() && nt.JoinLevels < tbl.Trees[0].Tree.Depth() {
		t.Errorf("predicate-free window should reserve (nearly) all levels for the join attribute: join=%d depth=%d",
			nt.JoinLevels, nt.Depth())
	}
	if nt.AttrLevels()[1] == 0 {
		t.Errorf("join attribute unused in new tree")
	}
}

func TestAutoJoinLevelsSelectiveWorkloadKeepsSelectionLevels(t *testing.T) {
	tbl, m := setup(t)
	m.AutoJoinLevels = true
	// Window full of queries filtering on column 2.
	var meter cluster.Meter
	for i := 0; i < 5; i++ {
		m.Window.Add(workload.Query{JoinAttr: 0, Preds: selPreds()})
	}
	q := workload.Query{JoinAttr: 1, Preds: selPreds()}
	m.Window.Add(q)
	res, err := m.Step(tbl, q, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatedTree < 0 {
		t.Fatalf("tree not created")
	}
	nt := tbl.Trees[res.CreatedTree].Tree
	base := tbl.Trees[0].Tree.Depth()
	if nt.JoinLevels >= base {
		t.Errorf("selective window should keep selection levels: join=%d of depth %d", nt.JoinLevels, base)
	}
}
