package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adaptdb/internal/block"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var (
	factSch = schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
		schema.Column{Name: "v", Kind: value.Int},
	)
	dimSch = schema.MustNew(
		schema.Column{Name: "key", Kind: value.Int},
		schema.Column{Name: "payload", Kind: value.Int},
	)
)

type fixture struct {
	store        *dfs.Store
	fact, da, db *core.Table
}

// buildFixture loads a fresh store with the fact/dim trio. Fully
// deterministic: two calls produce bit-identical layouts, so a serial
// and a concurrent service can be compared query-by-query.
func buildFixture(t *testing.T) *fixture {
	t.Helper()
	store := dfs.NewStore(4, 2, 5)
	rng := rand.New(rand.NewSource(17))
	var frows, darows, dbrows []tuple.Tuple
	for i := 0; i < 4096; i++ {
		frows = append(frows, tuple.Tuple{
			value.NewInt(rng.Int63n(200)),
			value.NewInt(rng.Int63n(50)),
			value.NewInt(rng.Int63n(1000)),
		})
	}
	for i := int64(0); i < 200; i++ {
		darows = append(darows, tuple.Tuple{value.NewInt(i), value.NewInt(i * 7)})
	}
	for i := int64(0); i < 50; i++ {
		dbrows = append(dbrows, tuple.Tuple{value.NewInt(i), value.NewInt(i * 11)})
	}
	f := &fixture{store: store}
	var err error
	if f.fact, err = core.Load(store, "fact", factSch, frows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 2, JoinAttr: -1,
	}); err != nil {
		t.Fatal(err)
	}
	if f.da, err = core.Load(store, "dim_a", dimSch, darows, core.LoadOptions{
		RowsPerBlock: 32, Seed: 3, JoinAttr: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if f.db, err = core.Load(store, "dim_b", dimSch, dbrows, core.LoadOptions{
		RowsPerBlock: 16, Seed: 4, JoinAttr: 0,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// query builds a fact ⋈ dim query on the given fact column with a
// selection on fact.v; it votes fact's join column into the windows.
func (f *fixture) query(attr int, vmax int64) session.Query {
	dim := f.da
	if attr == 1 {
		dim = f.db
	}
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(vmax))}
	return session.Query{
		Label: fmt.Sprintf("fact-dim@%d<%d", attr, vmax),
		Plan: &planner.Join{
			Left:  &planner.Scan{Table: f.fact, Preds: preds},
			Right: &planner.Scan{Table: dim},
			LCol:  attr, RCol: 0,
		},
	}
}

func testConfig() Config {
	return Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 4, Seed: 7},
		MemBudget: 32 << 20,
	}
}

// staticConfig is testConfig under ModeStatic: queries still vote into
// the windows but never repartition, for tests that need a stable
// epoch.
func staticConfig() Config {
	cfg := testConfig()
	cfg.Optimizer.Mode = optimizer.ModeStatic
	return cfg
}

// staticTenant registers tenant id with a ModeStatic optimizer, so its
// queries leave layouts and epochs to the service's other tenants.
func staticTenant(svc *Service, id string) string {
	svc.tenants[id] = &tenant{opt: optimizer.New(staticConfig().Optimizer)}
	return id
}

// schedule is the serve test stream: an attr-0 phase then an attr-1
// phase (the join-attribute shift), with the selection varying so plan
// keys repeat only within a (attr, vmax) class.
func schedule(n int) []struct {
	attr int
	vmax int64
} {
	out := make([]struct {
		attr int
		vmax int64
	}, n)
	for i := range out {
		attr := 0
		if i >= n/2 {
			attr = 1
		}
		out[i] = struct {
			attr int
			vmax int64
		}{attr, int64(200 + 200*(i%3))}
	}
	return out
}

// TestServeConcurrentMatchesSerial is the package-level differential
// gate: T tenants × Q queries through one Service, concurrent, must
// checksum-match the identical streams replayed serially on a freshly
// built twin service. Run with -race.
func TestServeConcurrentMatchesSerial(t *testing.T) {
	const tenants, perTenant = 4, 12
	sched := schedule(perTenant)

	type key struct{ tenant, qi int }
	type digest struct {
		sum  uint64
		rows int
	}

	// Serial oracle on its own twin store.
	serial := make(map[key]digest)
	{
		f := buildFixture(t)
		svc := New(f.store, testConfig())
		for qi, s := range sched {
			for c := 0; c < tenants; c++ {
				res, err := svc.Stream(context.Background(), fmt.Sprintf("t%d", c), f.query(s.attr, s.vmax), nil)
				if err != nil {
					t.Fatalf("serial t%d q%d: %v", c, qi, err)
				}
				serial[key{c, qi}] = digest{res.Checksum, res.RowCount}
			}
		}
		if got := svc.adm.mem.Used(); got != 0 {
			t.Fatalf("serial service reserved %d bytes at rest, want 0", got)
		}
	}

	f := buildFixture(t)
	svc := New(f.store, testConfig())
	var (
		mu         sync.Mutex
		concurrent = make(map[key]digest)
		wg         sync.WaitGroup
	)
	for c := 0; c < tenants; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi, s := range sched {
				res, err := svc.Stream(context.Background(), fmt.Sprintf("t%d", c), f.query(s.attr, s.vmax), nil)
				if err != nil {
					t.Errorf("concurrent t%d q%d: %v", c, qi, err)
					return
				}
				mu.Lock()
				concurrent[key{c, qi}] = digest{res.Checksum, res.RowCount}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, want := range serial {
		if got := concurrent[k]; got != want {
			t.Errorf("tenant %d query %d: concurrent %016x/%d rows, serial %016x/%d rows",
				k.tenant, k.qi, got.sum, got.rows, want.sum, want.rows)
		}
	}
	// All reservations must have been returned.
	if got := svc.adm.mem.Used(); got != 0 {
		t.Fatalf("concurrent service reserved %d bytes at rest, want 0", got)
	}
}

// TestServeExecuteMatchesStream: the two drain paths agree on rows,
// count, and checksum.
func TestServeExecuteMatchesStream(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, staticConfig())
	q := f.query(0, 400)
	ex, err := svc.Execute(context.Background(), "t0", q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stream(context.Background(), "t0", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.RowCount != st.RowCount || ex.Checksum != st.Checksum {
		t.Fatalf("Execute %d rows %016x vs Stream %d rows %016x",
			ex.RowCount, ex.Checksum, st.RowCount, st.Checksum)
	}
	if len(ex.Rows) != ex.RowCount {
		t.Fatalf("Execute materialized %d rows, RowCount %d", len(ex.Rows), ex.RowCount)
	}
	if st.Rows != nil {
		t.Fatal("Stream materialized rows")
	}
	// The checksum is defined on the row form: fnv1a over each result
	// row's binary encoding, summed. Computing it from the vectors must
	// not change a bit.
	var sum uint64
	for _, r := range ex.Rows {
		sum += fnv1a(r.AppendBinary(nil))
	}
	if sum != ex.Checksum {
		t.Fatalf("Checksum %016x, row-form checksum %016x", ex.Checksum, sum)
	}
}

// TestServeResultOps: a served query reports every compiled operator's
// stats, and PerNode folds them by execution node — node 0 on the
// one-node fabric, several nodes on the simulated per-node fabric. The
// fixture's joins all run as coordinator-side hyper-joins, so a scan
// of the fact table is the query whose operators run at the nodes.
func TestServeResultOps(t *testing.T) {
	f := buildFixture(t)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(400))}
	q := session.Query{Label: "fact<400", Plan: &planner.Scan{Table: f.fact, Preds: preds}}
	for _, distributed := range []bool{false, true} {
		cfg := staticConfig()
		cfg.Distributed = distributed
		res, err := New(f.store, cfg).Stream(context.Background(), "t0", q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ops) == 0 || res.RowCount == 0 {
			t.Fatalf("distributed=%v: %d operator stats, %d rows", distributed, len(res.Ops), res.RowCount)
		}
		ops, active := 0, 0
		for _, nl := range res.PerNode() {
			ops += nl.Ops
			if nl.Node >= 0 && nl.Rows > 0 {
				active++
			}
			if !distributed && nl.Node > 0 {
				t.Fatalf("one-node fabric ran operators at node %d", nl.Node)
			}
		}
		if ops != len(res.Ops) {
			t.Fatalf("distributed=%v: PerNode folds %d operators, Ops has %d", distributed, ops, len(res.Ops))
		}
		if want := map[bool]int{false: 1, true: 2}[distributed]; active < want {
			t.Fatalf("distributed=%v: operators produced rows at %d nodes, want >= %d", distributed, active, want)
		}
	}
}

// TestServePlanCacheHitRepeatMissOnBump: a repeated (tables, attrs,
// predicates, epoch) compile hits the cache; an adaptation that bumps
// the epoch makes the next compile miss and re-prices.
func TestServePlanCacheHitRepeatMissOnBump(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, testConfig())
	static := staticTenant(svc, "static")
	q := f.query(0, 400)

	first, err := svc.Execute(context.Background(), static, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses == 0 || first.CacheHits != 0 {
		t.Fatalf("first compile: %d hits / %d misses, want cold misses only",
			first.CacheHits, first.CacheMisses)
	}
	second, err := svc.Execute(context.Background(), static, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != first.CacheMisses {
		t.Fatalf("repeat compile: %d hits / %d misses, want %d hits / 0 misses",
			second.CacheHits, second.CacheMisses, first.CacheMisses)
	}
	if second.Checksum != first.Checksum || second.RowCount != first.RowCount {
		t.Fatalf("cached plan drifted: %016x/%d vs %016x/%d",
			second.Checksum, second.RowCount, first.Checksum, first.RowCount)
	}

	// Drive adaptation until an epoch bump lands on the fact table. The
	// driver uses a different predicate class (vmax 600) so its own
	// compiles never repopulate q's key at the new epoch — the post-bump
	// lookup below must be a genuine cold miss.
	epoch0 := svc.Epoch("fact")
	for i := 0; i < 32 && svc.Epoch("fact") == epoch0; i++ {
		if _, err := svc.Execute(context.Background(), "t0", f.query(0, 600)); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Epoch("fact") == epoch0 {
		t.Fatal("adaptive stream never bumped the fact epoch")
	}

	third, err := svc.Execute(context.Background(), static, q)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheMisses == 0 {
		t.Fatalf("post-bump compile: %d hits / %d misses, want fresh misses (stale key must be unreachable)",
			third.CacheHits, third.CacheMisses)
	}
	// Same data, new layout: the answer must not change.
	if third.Checksum != first.Checksum || third.RowCount != first.RowCount {
		t.Fatalf("post-bump result drifted: %016x/%d vs %016x/%d",
			third.Checksum, third.RowCount, first.Checksum, first.RowCount)
	}
}

// TestServeFailedAdaptationBumpsEpoch: an adaptation step that fails
// partway has already changed the layout (the smooth step created its
// tree before the migration's read failed), so it must still bump the
// epoch — otherwise cached fragments of the old layout keep being
// served. With fact's donor blocks deleted, the migration fails
// whichever bucket it picks.
func TestServeFailedAdaptationBumpsEpoch(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, testConfig())
	static := staticTenant(svc, "static")
	q := f.query(0, 400)
	first, err := svc.Execute(context.Background(), static, q)
	if err != nil {
		t.Fatal(err)
	}

	donors := map[string]*block.Block{}
	for _, b := range f.fact.Trees[0].LiveBuckets() {
		path := f.fact.BlockPath(0, b)
		blk, _, err := f.store.GetBlock(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		donors[path] = blk
		f.store.Delete(path)
	}
	epoch0 := svc.Epoch("fact")
	if _, err := svc.Execute(context.Background(), "t0", f.query(0, 600)); err == nil {
		t.Fatal("adaptation over deleted donor blocks succeeded")
	}
	if len(f.fact.LiveTrees()) < 2 {
		t.Fatalf("the failed step created no tree (trees %v); the test has nothing to break", f.fact.LiveTrees())
	}
	if svc.Epoch("fact") == epoch0 {
		t.Fatal("a failed adaptation that created a tree left the fact epoch unchanged")
	}
	for path, blk := range donors {
		f.store.PutBlock(path, blk)
	}

	after, err := svc.Execute(context.Background(), static, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheMisses == 0 {
		t.Fatalf("post-failure compile: %d hits / %d misses, want fresh misses", after.CacheHits, after.CacheMisses)
	}
	if after.Checksum != first.Checksum || after.RowCount != first.RowCount {
		t.Fatalf("post-failure result drifted: %016x/%d vs %016x/%d",
			after.Checksum, after.RowCount, first.Checksum, first.RowCount)
	}
}

// TestServeCacheNeverStale is the cached-vs-fresh oracle: the same
// adaptive stream on twin services — one caching, one compiling fresh
// every time — must produce identical per-query results. Any stale
// fragment served past an epoch bump diverges here.
func TestServeCacheNeverStale(t *testing.T) {
	sched := schedule(16)
	run := func(disable bool) []uint64 {
		f := buildFixture(t)
		cfg := testConfig()
		cfg.DisablePlanCache = disable
		svc := New(f.store, cfg)
		var sums []uint64
		for qi, s := range sched {
			res, err := svc.Stream(context.Background(), "t0", f.query(s.attr, s.vmax), nil)
			if err != nil {
				t.Fatalf("disable=%v q%d: %v", disable, qi, err)
			}
			sums = append(sums, res.Checksum)
		}
		if !disable {
			if hits, _ := svc.CacheStats(); hits == 0 {
				t.Fatal("caching run never hit the cache — oracle compares nothing")
			}
		}
		return sums
	}
	cached, fresh := run(false), run(true)
	for i := range cached {
		if cached[i] != fresh[i] {
			t.Errorf("query %d: cached %016x, fresh %016x", i, cached[i], fresh[i])
		}
	}
}

// TestServeCancellation: a cancelled context fails the query with
// ctx.Err() and every reservation comes back.
func TestServeCancellation(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, staticConfig())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Execute(ctx, "t0", f.query(0, 1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query error = %v, want context.Canceled", err)
	}
	if got := svc.adm.mem.Used(); got != 0 {
		t.Fatalf("reserved after cancelled query = %d, want 0", got)
	}

	// Cancel mid-stream: the sink pulls the trigger after the first
	// batch, the drain loop must stop with ctx.Err().
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	_, err = svc.Stream(ctx, "t0", f.query(0, 1000), func(*exec.Batch) error {
		batches++
		if batches == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel error = %v, want context.Canceled", err)
	}
	if got := svc.adm.mem.Used(); got != 0 {
		t.Fatalf("reserved after mid-stream cancel = %d, want 0", got)
	}

	// The service stays healthy: the same query runs to completion.
	if _, err := svc.Execute(context.Background(), "t0", f.query(0, 1000)); err != nil {
		t.Fatalf("query after cancellations: %v", err)
	}
}

// TestServeDeadline: an already-expired deadline errors with
// DeadlineExceeded before any work runs.
func TestServeDeadline(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, staticConfig())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := svc.Execute(ctx, "t0", f.query(0, 1000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline query error = %v, want DeadlineExceeded", err)
	}
	if got := svc.adm.mem.Used(); got != 0 {
		t.Fatalf("reserved after deadline = %d, want 0", got)
	}
}

// TestServeTenantWindowIsolation: each tenant's workload windows see
// only that tenant's queries — tenant B's stream never dilutes tenant
// A's vote.
func TestServeTenantWindowIsolation(t *testing.T) {
	f := buildFixture(t)
	svc := New(f.store, testConfig())
	for i := 0; i < 3; i++ {
		if _, err := svc.Stream(context.Background(), "alice", f.query(0, 400), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Stream(context.Background(), "bob", f.query(1, 400), nil); err != nil {
		t.Fatal(err)
	}
	aw := svc.tenant("alice").opt.Window("fact").Queries()
	bw := svc.tenant("bob").opt.Window("fact").Queries()
	if len(aw) != 3 || len(bw) != 1 {
		t.Fatalf("window sizes alice=%d bob=%d, want 3 and 1", len(aw), len(bw))
	}
	for _, q := range aw {
		if q.JoinAttr != 0 {
			t.Fatalf("alice's window saw attr %d", q.JoinAttr)
		}
	}
	if bw[0].JoinAttr != 1 {
		t.Fatalf("bob's window saw attr %d, want 1", bw[0].JoinAttr)
	}
}

// TestServeShedOversizedQuery: with a budget smaller than the floor
// reservation, every query sheds with the typed error and nothing
// leaks.
func TestServeShedOversizedQuery(t *testing.T) {
	f := buildFixture(t)
	cfg := staticConfig()
	cfg.MemBudget = minReserve - 1
	svc := New(f.store, cfg)
	_, err := svc.Execute(context.Background(), "t0", f.query(0, 400))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("oversized query error = %v, want ErrShed", err)
	}
	if got := svc.adm.mem.Used(); got != 0 {
		t.Fatalf("reserved after shed = %d, want 0", got)
	}
}

// TestServeDistributedMatchesCentralized: the same stream through a
// distributed service (per-node executors + exchanges) checksums
// identically to the centralized twin.
func TestServeDistributedMatchesCentralized(t *testing.T) {
	sched := schedule(8)
	run := func(distributed bool) []uint64 {
		f := buildFixture(t)
		cfg := testConfig()
		cfg.Distributed = distributed
		svc := New(f.store, cfg)
		var sums []uint64
		for qi, s := range sched {
			res, err := svc.Stream(context.Background(), "t0", f.query(s.attr, s.vmax), nil)
			if err != nil {
				t.Fatalf("distributed=%v q%d: %v", distributed, qi, err)
			}
			sums = append(sums, res.Checksum)
		}
		return sums
	}
	central, dist := run(false), run(true)
	for i := range central {
		if central[i] != dist[i] {
			t.Errorf("query %d: centralized %016x, distributed %016x", i, central[i], dist[i])
		}
	}
}
