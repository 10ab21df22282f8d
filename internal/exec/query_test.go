package exec

import (
	"context"
	"errors"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
)

// TestForQueryIsolatesPerQueryState: the derived view shares the
// template's store and flags but owns its meter, budget, spill dir and
// context — two views never see each other's accounting.
func TestForQueryIsolatesPerQueryState(t *testing.T) {
	store := dfs.NewStore(2, 1, 1)
	base := New(store, &cluster.Meter{})
	base.Workers = 3
	base.NoPrune = true
	base.SpillDir = "/base/spill"
	base.Mem = NewMemBudget(1 << 30)

	m := &cluster.Meter{}
	mem := NewMemBudget(1 << 20)
	q := base.ForQuery(QueryCtx{Meter: m, Mem: mem, SpillDir: "/q/spill"})
	if q.Meter != m || q.Mem != mem || q.SpillDir != "/q/spill" {
		t.Fatalf("view didn't take per-query state: %+v", q)
	}
	if q.Store != base.Store || !q.NoPrune || q.Workers != 3 {
		t.Fatal("view didn't share template store/flags")
	}
	// The template is untouched.
	if base.Mem == mem || base.SpillDir != "/base/spill" || base.Workers != 3 {
		t.Fatal("ForQuery mutated the template")
	}

	// Executing through the view meters the view's meter only.
	l, r := genOrders(200, 41), genLineitem(300, 42)
	if _, err := Collect(q.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})); err != nil {
		t.Fatal(err)
	}
	if c := m.Snapshot(); c.ResultRows == 0 {
		t.Fatal("query meter saw no result rows")
	}
	if c := base.Meter.Snapshot(); c != (cluster.Counters{}) {
		t.Fatalf("template meter leaked query accounting: %+v", c)
	}
}

// TestForQueryDefaults: nil meter allocates a private one; Workers and
// an empty SpillDir inherit the template's.
func TestForQueryDefaults(t *testing.T) {
	store := dfs.NewStore(2, 1, 1)
	base := New(store, &cluster.Meter{})
	base.Workers = 5
	base.SpillDir = "/base/spill"
	q := base.ForQuery(QueryCtx{})
	if q.Meter == nil || q.Meter == base.Meter {
		t.Fatal("nil QueryCtx.Meter must allocate a private meter")
	}
	if q.Workers != 5 || q.SpillDir != "/base/spill" {
		t.Fatalf("defaults not inherited: workers=%d spill=%q", q.Workers, q.SpillDir)
	}
	if q.Mem != nil {
		t.Fatal("nil QueryCtx.Mem must stay unlimited")
	}
}

// TestForQueryDistributed: the view gets its own NodeSet; the template
// stays centralized, and two views never share a fabric.
func TestForQueryDistributed(t *testing.T) {
	store := dfs.NewStore(4, 2, 1)
	base := New(store, &cluster.Meter{})
	a := base.ForQuery(QueryCtx{Distributed: true})
	b := base.ForQuery(QueryCtx{Distributed: true})
	if a.Nodes() == nil || b.Nodes() == nil {
		t.Fatal("distributed views must carry a NodeSet")
	}
	if a.Nodes() == b.Nodes() {
		t.Fatal("views share a NodeSet")
	}
	if base.Nodes() != nil {
		t.Fatal("ForQuery attached a fabric to the template")
	}
	if a.Nodes().N() != 4 {
		t.Fatalf("fabric size %d, want 4", a.Nodes().N())
	}
}

// TestForQueryContext: a distributed view's context is observed by
// ctxErr on the view and on every node view; a view without one is
// never cancelled.
func TestForQueryContext(t *testing.T) {
	tmpl := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	for _, e := range []*Executor{tmpl, tmpl.ForQuery(QueryCtx{Distributed: true})} {
		if err := e.ctxErr(); err != nil {
			t.Fatalf("unbound ctxErr = %v, want nil", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := tmpl.ForQuery(QueryCtx{Ctx: ctx, Distributed: true})
	ns := e.Nodes()
	views := []*Executor{e}
	for i := 0; i < ns.N(); i++ {
		views = append(views, ns.At(i))
	}
	for i, v := range views {
		if err := v.ctxErr(); err != nil {
			t.Fatalf("view %d live ctxErr = %v, want nil", i, err)
		}
	}
	cancel()
	for i, v := range views {
		if err := v.ctxErr(); !errors.Is(err, context.Canceled) {
			t.Fatalf("view %d cancelled ctxErr = %v, want context.Canceled", i, err)
		}
	}
}
