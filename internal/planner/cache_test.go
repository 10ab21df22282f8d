package planner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"adaptdb/internal/predicate"
	"adaptdb/internal/value"
)

// TestPlanCacheLRU exercises the bare cache mechanics: bounded size,
// eviction from the cold end, promotion on get, and lookup accounting.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(3)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), tableJoinPlan{strategy: fmt.Sprintf("s%d", i)})
	}
	if c.order.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.order.Len())
	}
	// Touch k0 so k1 becomes the LRU, then overflow.
	if p, ok := c.get("k0"); !ok || p.strategy != "s0" {
		t.Fatalf("get k0 = %+v ok=%v", p, ok)
	}
	c.put("k3", tableJoinPlan{strategy: "s3"})
	if c.order.Len() != 3 {
		t.Fatalf("len after overflow = %d, want 3", c.order.Len())
	}
	if _, ok := c.get("k1"); ok {
		t.Fatal("k1 survived eviction; LRU should have evicted it")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	hits, misses := c.Stats()
	if hits != 4 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
	// Re-putting an existing key updates in place, no growth.
	c.put("k3", tableJoinPlan{strategy: "s3'"})
	if c.order.Len() != 3 {
		t.Fatalf("len after re-put = %d, want 3", c.order.Len())
	}
	if p, _ := c.get("k3"); p.strategy != "s3'" {
		t.Fatalf("re-put not visible: %q", p.strategy)
	}
}

// TestPlanCacheDefaultSize: size 0 falls back to the default bound.
func TestPlanCacheDefaultSize(t *testing.T) {
	c := NewPlanCache(0)
	for i := 0; i < DefaultPlanCacheSize+10; i++ {
		c.put(fmt.Sprintf("k%d", i), tableJoinPlan{})
	}
	if c.order.Len() != DefaultPlanCacheSize {
		t.Fatalf("len = %d, want %d", c.order.Len(), DefaultPlanCacheSize)
	}
}

// TestCachedTableJoinHitMissEpoch drives the Runner-side wrapper
// against a real layout: cold miss, warm hit replaying an identical
// decision, and a guaranteed miss after either table's layout changes
// — the stale entry must be unaddressable.
func TestCachedTableJoinHitMissEpoch(t *testing.T) {
	f := setup(t, true)
	cache := NewPlanCache(0)
	f.runner.Cache = cache

	lscan := &Scan{Table: f.line, Preds: []predicate.Predicate{
		predicate.NewCmp(2, predicate.LT, value.NewInt(1500)),
	}}
	oscan := &Scan{Table: f.ord}

	fresh := f.runner.planTableJoin(lscan, 0, oscan, 0)
	cold := f.runner.cachedTableJoin(lscan, 0, oscan, 0)
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cold cached decision %+v != fresh %+v", cold, fresh)
	}
	if f.runner.CacheMisses != 1 || f.runner.CacheHits != 0 {
		t.Fatalf("after cold: %d hits / %d misses, want 0/1", f.runner.CacheHits, f.runner.CacheMisses)
	}
	warm := f.runner.cachedTableJoin(lscan, 0, oscan, 0)
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatalf("warm cached decision %+v != fresh %+v", warm, fresh)
	}
	if f.runner.CacheHits != 1 {
		t.Fatalf("after warm: %d hits, want 1", f.runner.CacheHits)
	}

	// A layout change on either side invalidates by making the key
	// unreachable.
	relayout(t, f.line)
	f.runner.cachedTableJoin(lscan, 0, oscan, 0)
	if f.runner.CacheMisses != 2 {
		t.Fatalf("after lineitem bump: %d misses, want 2", f.runner.CacheMisses)
	}
	relayout(t, f.ord)
	f.runner.cachedTableJoin(lscan, 0, oscan, 0)
	if f.runner.CacheMisses != 3 {
		t.Fatalf("after orders bump: %d misses, want 3", f.runner.CacheMisses)
	}
	// At the new versions, the refreshed entries hit again.
	f.runner.cachedTableJoin(lscan, 0, oscan, 0)
	if f.runner.CacheHits != 2 {
		t.Fatalf("post-bump repeat: %d hits, want 2", f.runner.CacheHits)
	}
}

// TestCachedCompileMatchesFresh is the stale-fragment oracle at the
// whole-compile level: a Runner with a warm cache must produce the
// same rows and the same strategy report as a cache-less Runner over
// the same layout.
func TestCachedCompileMatchesFresh(t *testing.T) {
	f := setup(t, true)
	plan := func() Node {
		return &Join{
			Left: &Scan{Table: f.line, Preds: []predicate.Predicate{
				predicate.NewCmp(2, predicate.LT, value.NewInt(1500)),
			}},
			Right: &Scan{Table: f.ord},
			LCol:  0, RCol: 0,
		}
	}
	freshRows, freshRep, err := collect(f.runner, plan())
	if err != nil {
		t.Fatal(err)
	}

	f.runner.Cache = NewPlanCache(0)
	// Twice: first warms the cache, second replays from it.
	if _, _, err := collect(f.runner, plan()); err != nil {
		t.Fatal(err)
	}
	cachedRows, cachedRep, err := collect(f.runner, plan())
	if err != nil {
		t.Fatal(err)
	}
	if f.runner.CacheHits == 0 {
		t.Fatal("second cached run never hit — oracle compares nothing")
	}
	sameRows(t, cachedRows, freshRows, "cached compile")
	if len(cachedRep.Joins) != len(freshRep.Joins) {
		t.Fatalf("join report length %d vs %d", len(cachedRep.Joins), len(freshRep.Joins))
	}
	for i := range cachedRep.Joins {
		if cachedRep.Joins[i].Strategy != freshRep.Joins[i].Strategy {
			t.Errorf("join %d strategy %q vs fresh %q",
				i, cachedRep.Joins[i].Strategy, freshRep.Joins[i].Strategy)
		}
	}
}

// TestPlanKeyDiscriminates: every input the join decision depends on
// must show up in the key — tables, columns, predicates, layout
// versions, and the runner knobs that steer the cost comparison.
func TestPlanKeyDiscriminates(t *testing.T) {
	f := setup(t, true)
	lscan := func(preds ...predicate.Predicate) *Scan {
		return &Scan{Table: f.line, Preds: preds}
	}
	oscan := &Scan{Table: f.ord}
	base := f.runner.planKey(lscan(), 0, oscan, 0)

	seen := map[string]string{"base": base}
	check := func(label, key string) {
		t.Helper()
		for prev, k := range seen {
			if k == key {
				t.Errorf("%s key collides with %s: %q", label, prev, key)
			}
		}
		seen[label] = key
	}
	check("lcol", f.runner.planKey(lscan(), 1, oscan, 0))
	check("rcol", f.runner.planKey(lscan(), 0, oscan, 1))
	check("pred", f.runner.planKey(lscan(predicate.NewCmp(2, predicate.LT, value.NewInt(9))), 0, oscan, 0))
	check("pred-value", f.runner.planKey(lscan(predicate.NewCmp(2, predicate.LT, value.NewInt(10))), 0, oscan, 0))
	check("rtable", f.runner.planKey(lscan(), 0, &Scan{Table: f.cust}, 0))

	relayout(t, f.line)
	check("version", f.runner.planKey(lscan(), 0, oscan, 0))

	f.runner.ForceShuffle = true
	check("force-shuffle", f.runner.planKey(lscan(), 0, oscan, 0))
	f.runner.ForceShuffle = false

	f.runner.BudgetBlocks = 99
	check("budget", f.runner.planKey(lscan(), 0, oscan, 0))
}

// TestPlanCacheConcurrent hammers one shared cache from many Runners
// (the serving pattern: a fresh Runner per query, one cache per
// service). Run with -race; correctness is every lookup returning the
// same decision.
func TestPlanCacheConcurrent(t *testing.T) {
	f := setup(t, true)
	cache := NewPlanCache(8)
	lscan := &Scan{Table: f.line}
	oscan := &Scan{Table: f.ord}
	want := f.runner.planTableJoin(lscan, 0, oscan, 0)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRunner(f.runner.Ex, f.runner.Model)
			r.Cache = cache
			for i := 0; i < 50; i++ {
				got := r.cachedTableJoin(lscan, 0, oscan, 0)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent lookup diverged: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := cache.Stats()
	if hits+misses != 8*50 {
		t.Fatalf("lookups = %d, want %d", hits+misses, 8*50)
	}
}
