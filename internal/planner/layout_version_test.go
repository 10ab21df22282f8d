package planner

import (
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tree"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// relayout changes tbl's layout without moving a row: it sets one
// block's replicas to the ones the block already has.
func relayout(t *testing.T, tbl *core.Table) {
	t.Helper()
	ref := tbl.AllRefs(nil)[0]
	if err := tbl.SetPlacement(ref, tbl.Store().Placement(ref.Path)); err != nil {
		t.Fatal(err)
	}
}

// layoutChange is one core.Table mutator: prep readies tbl and returns
// the change itself.
type layoutChange struct {
	name string
	prep func(t *testing.T, tbl *core.Table) func() error
}

// buildTree builds a small selection tree over tbl's sample.
func buildTree(tbl *core.Table, seed int64) *tree.Tree {
	return upfront.Builder{Schema: tbl.Schema, Depth: 2, Seed: seed}.Build(tbl.SampleRows)
}

var layoutChanges = []layoutChange{
	{"AddTree", func(t *testing.T, tbl *core.Table) func() error {
		return func() error { tbl.AddTree(buildTree(tbl, 1)); return nil }
	}},
	{"DropTree", func(t *testing.T, tbl *core.Table) func() error {
		idx := tbl.AddTree(buildTree(tbl, 1))
		return func() error { return tbl.DropTree(idx) }
	}},
	{"MoveBuckets", func(t *testing.T, tbl *core.Table) func() error {
		idx := tbl.AddTree(buildTree(tbl, 1))
		return func() error { return tbl.MoveBuckets(0, idx, tbl.Trees[0].LiveBuckets()[:1], nil) }
	}},
	{"ReplaceTreeData", func(t *testing.T, tbl *core.Table) func() error {
		return func() error { return tbl.ReplaceTreeData(0, buildTree(tbl, 2), nil) }
	}},
	{"Resplit", func(t *testing.T, tbl *core.Table) func() error {
		var pair *tree.Node
		tbl.Trees[0].Tree.Walk(func(n *tree.Node) {
			if pair == nil && !n.Leaf && n.Left.Leaf && n.Right.Leaf {
				pair = n
			}
		})
		if pair == nil {
			t.Fatalf("%s has no leaf pair", tbl.Name)
		}
		return func() error { return tbl.Resplit(0, pair, 1, value.NewInt(2), nil) }
	}},
	{"SetPlacement", func(t *testing.T, tbl *core.Table) func() error {
		ref := tbl.Refs(0, nil)[0]
		return func() error { return tbl.SetPlacement(ref, []dfs.NodeID{(ref.Node + 1) % 4}) }
	}},
}

// TestLayoutVersionInvalidatesCache: every core.Table mutator moves the
// table's layout version, so a lineitem⋈orders plan-cache entry keyed
// before the change is a miss after it, and the entry keyed anew hits.
// The same change to customer, a table the entry does not read, leaves
// lineitem's version alone and the entry a hit.
func TestLayoutVersionInvalidatesCache(t *testing.T) {
	for _, c := range layoutChanges {
		t.Run(c.name, func(t *testing.T) {
			f := setup(t, true)
			f.runner.Cache = NewPlanCache(0)
			lscan, oscan := &Scan{Table: f.line}, &Scan{Table: f.ord}
			hit := func() bool {
				h := f.runner.CacheHits
				f.runner.cachedTableJoin(lscan, 0, oscan, 0)
				return f.runner.CacheHits > h
			}
			other, change := c.prep(t, f.cust), c.prep(t, f.line)
			if hit() {
				t.Fatal("cold lookup hit")
			}
			v, cv := f.line.Version(), f.cust.Version()
			if err := other(); err != nil {
				t.Fatal(err)
			}
			if f.cust.Version() <= cv {
				t.Fatalf("customer version %d -> %d", cv, f.cust.Version())
			}
			if f.line.Version() != v {
				t.Fatalf("a change to customer moved lineitem's version %d -> %d", v, f.line.Version())
			}
			if !hit() {
				t.Fatal("a change to customer evicted the lineitem⋈orders entry")
			}
			if err := change(); err != nil {
				t.Fatal(err)
			}
			if f.line.Version() <= v {
				t.Fatalf("lineitem version %d -> %d", v, f.line.Version())
			}
			if hit() {
				t.Fatal("the entry keyed before the change hit after it")
			}
			if !hit() {
				t.Fatal("the entry keyed after the change missed")
			}
		})
	}
}
