// Package serve is the multi-tenant serving layer: one long-lived
// Service owns a dfs.Store, a template executor, a shared plan cache
// and an admission controller, and any number of concurrent client
// streams execute queries through it.
//
// Ownership rules (the query-context refactor):
//
//   - The Service owns what is shared and immutable per query: the
//     store, the executor template (flags, spill fs), the plan cache,
//     the global admission budget, and the per-table partitioning
//     epochs.
//   - Each query owns what it mutates: a context (cancellation and
//     deadline), a private cluster.Meter, a MemBudget share sized to
//     its admission reservation, and — in distributed mode — a private
//     NodeSet with per-node meter shards. exec.Executor.ForQuery
//     derives that view; it lives for one session.Run of the query.
//   - Each tenant owns its adaptation state: an optimizer.Optimizer
//     whose per-table workload.Windows track only that tenant's
//     queries, so one tenant's drift repartitions without another's
//     window diluting the vote.
//
// Concurrency model: table layouts (core.Table) carry no locks, so the
// Service serializes adaptation against execution with one RWMutex —
// queries compile and drain under the read lock, repartitioning steps
// run under the write lock and bump the touched tables' epochs before
// releasing it. The plan cache keys on those epochs, which is the
// entire invalidation story:
//
//	adapt:  Lock  → migrate blocks → epoch E+1 → Unlock
//	query:  RLock → session.Run: compile (cache keyed @E) → drain → RUnlock
//
// A cached fragment compiled @E can only be replayed while the layout
// that produced it is still current; after the bump its key is
// unreachable and the next compile re-prices against the new layout.
package serve

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
)

// minReserve floors a query's admission reservation: even a pure scan
// holds batch buffers, and a zero reservation would let unlimited
// queries through a saturated service.
const minReserve = 64 << 10

// Config tunes a Service. The session.Config knobs keep their
// meanings; the serving additions are MemBudget (now a global pool
// shared by in-flight queries rather than one stream's budget),
// MaxQueued, and the plan-cache switch.
type Config struct {
	Model        cluster.CostModel
	Optimizer    optimizer.Config // template for per-tenant optimizers
	BudgetBlocks int
	// MemBudget bounds the sum of in-flight queries' estimated
	// footprints (0 = unlimited, admission passes everything). Each
	// admitted query gets a private exec.MemBudget sized to its
	// reservation, so a query that outgrows its share spills rather
	// than stealing from its neighbors.
	MemBudget int64
	SpillDir  string
	// MaxQueued bounds the admission queue (0 = unbounded); beyond it
	// queries are rejected with ErrQueueFull instead of waiting.
	MaxQueued   int
	Distributed bool
	// DisablePlanCache turns the shared plan cache
	// (planner.DefaultPlanCacheSize entries) off entirely.
	DisablePlanCache bool
}

// Service is the long-lived query service. Safe for concurrent use by
// any number of goroutines.
type Service struct {
	store *dfs.Store
	cfg   Config
	model cluster.CostModel
	base  *exec.Executor // template: flags only, never executes
	adm   *Admission
	cache *planner.PlanCache

	// layoutMu serializes adaptation (write) against compile+execute
	// (read): core.Table is unsynchronized, so block migration must
	// never overlap a scan.
	layoutMu sync.RWMutex

	// epochMu guards epochs; bumps happen while layoutMu is held for
	// writing, reads happen under the read lock from many queries.
	epochMu sync.Mutex
	epochs  map[string]uint64

	tenantMu sync.Mutex
	tenants  map[string]*tenant

	seq atomic.Int64
}

// tenant is one client stream's adaptation state. Its mutex serializes
// the tenant's own adaptation steps; cross-tenant serialization is
// layoutMu's job.
type tenant struct {
	mu  sync.Mutex
	opt *optimizer.Optimizer
}

// New builds a service over a loaded store.
func New(store *dfs.Store, cfg Config) *Service {
	model := cfg.Model
	if model == (cluster.CostModel{}) {
		model = cluster.Default()
	}
	base := exec.New(store, &cluster.Meter{})
	base.SpillDir = cfg.SpillDir
	var cache *planner.PlanCache
	if !cfg.DisablePlanCache {
		cache = planner.NewPlanCache(0)
	}
	return &Service{
		store:   store,
		cfg:     cfg,
		model:   model,
		base:    base,
		adm:     NewAdmission(exec.NewMemBudget(cfg.MemBudget), cfg.MaxQueued),
		cache:   cache,
		epochs:  make(map[string]uint64),
		tenants: make(map[string]*tenant),
	}
}

// Result reports what one query did — session.Result plus the
// serving-layer observability: the tenant, the result checksum, cache
// behavior, and admission accounting. Wall spans the admission wait.
type Result struct {
	session.Result
	Tenant string
	// Checksum is an order-independent digest of the result multiset
	// (commutative sum of per-row FNV-1a over the binary encoding);
	// equal multisets yield equal checksums regardless of row order, so
	// concurrent and serial replays compare directly.
	Checksum uint64
	// Queued is the time spent waiting for admission.
	Queued time.Duration
	// EstBytes is the planner-estimated footprint the query reserved.
	EstBytes int64
	// CacheHits/CacheMisses are this query's plan-cache lookups (one
	// per base-table join in the plan).
	CacheHits, CacheMisses int
}

// Execute runs one query for a tenant — admit, adapt, compile, drain —
// materializing the result rows: Stream with a collecting sink. ctx
// cancels or deadlines the whole path, including the admission wait.
func (s *Service) Execute(ctx context.Context, tenantID string, q session.Query) (*Result, error) {
	var rows []tuple.Tuple
	res, err := s.Stream(ctx, tenantID, q, session.Collect(&rows))
	res.Rows = rows
	return res, err
}

// Stream runs one query without materializing the result; each output
// batch is passed to sink (nil = just count and checksum). The batch
// is only valid during the call.
func (s *Service) Stream(ctx context.Context, tenantID string, q session.Query, sink func(*exec.Batch) error) (*Result, error) {
	res := &Result{Tenant: tenantID}
	res.Seq, res.Label = int(s.seq.Add(1)-1), q.Label
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	// Reserve the planner-estimated footprint before anything runs.
	// The estimate reads zone maps, so it needs a stable layout.
	s.layoutMu.RLock()
	est := s.footprint(q)
	s.layoutMu.RUnlock()
	res.EstBytes = est
	qstart := time.Now()
	err := s.adm.Acquire(ctx, est)
	res.Queued = time.Since(qstart)
	if err != nil {
		return res, err
	}
	defer s.adm.Release(est)

	meter := &cluster.Meter{}
	adapt, err := s.adapt(tenantID, q, meter)
	if err != nil {
		res.Counters = meter.Reset()
		res.SimSeconds = res.Counters.SimSeconds(s.model)
		return res, err
	}

	// Compile and drain under the read lock: the layout (and with it
	// every epoch this compile keys cache entries on) cannot change
	// until the query finishes. The query's NodeSet is private, so
	// flushing its shards into the query meter never races another
	// query's accounting.
	s.layoutMu.RLock()
	defer s.layoutMu.RUnlock()
	runner := planner.NewRunner(s.base.ForQuery(exec.QueryCtx{
		Ctx:         ctx,
		Meter:       meter,
		Mem:         s.queryBudget(est),
		Distributed: s.cfg.Distributed,
	}), s.model)
	if s.cfg.BudgetBlocks > 0 {
		runner.BudgetBlocks = s.cfg.BudgetBlocks
	}
	runner.Cache = s.cache
	runner.Epoch = s.Epoch

	var scratch []byte
	r, err := session.Run(ctx, session.Step{Runner: runner, Seq: res.Seq}, q, func(b *exec.Batch) error {
		cb := b.Cols()
		sel := cb.Sel()
		for k, n := 0, cb.Len(); k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			scratch = cb.AppendRowBinary(scratch[:0], i)
			res.Checksum += fnv1a(scratch)
		}
		if sink != nil {
			return sink(b)
		}
		return nil
	})
	res.Result = *r
	res.Adapt = adapt
	res.CacheHits, res.CacheMisses = runner.CacheHits, runner.CacheMisses
	return res, err
}

// adapt runs the tenant's optimizer on q's votes: the tenant's own
// windows vote, and any layout change happens under the write lock —
// no query is scanning while blocks move. Epoch bumps piggyback on the
// same critical section, so a reader either sees (old layout, old
// epoch) or (new, new). A failed step may have changed layouts before
// it failed, so it bumps too.
func (s *Service) adapt(tenantID string, q session.Query, meter *cluster.Meter) (optimizer.StepReport, error) {
	uses := q.Uses()
	t := s.tenant(tenantID)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.layoutMu.Lock()
	defer s.layoutMu.Unlock()
	adapt, err := t.opt.OnQuery(uses, meter)
	if err != nil || adapt.Adapted() {
		s.epochMu.Lock()
		for _, u := range uses {
			s.epochs[u.Table.Name]++
		}
		s.epochMu.Unlock()
	}
	return adapt, err
}

// footprint estimates a query's peak memory via a throwaway runner
// over the template executor (the estimate only reads zone maps). The
// runner carries the compile's knobs, so a spec is ordered the way the
// compile will order it.
func (s *Service) footprint(q session.Query) int64 {
	r := planner.NewRunner(s.base, s.model)
	if s.cfg.BudgetBlocks > 0 {
		r.BudgetBlocks = s.cfg.BudgetBlocks
	}
	return floorReserve(q.Footprint(r))
}

func floorReserve(est int64) int64 {
	if est < minReserve {
		return minReserve
	}
	return est
}

// queryBudget sizes a query's private memory budget to its admission
// reservation — the "share" of the global pool it was admitted under.
// An unbudgeted service runs queries unlimited.
func (s *Service) queryBudget(est int64) *exec.MemBudget {
	if s.cfg.MemBudget <= 0 {
		return nil
	}
	return exec.NewMemBudget(est)
}

// Epoch reports a table's partitioning epoch — the planner cache's
// invalidation hook.
func (s *Service) Epoch(table string) uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epochs[table]
}

// tenant returns (creating on first use) a tenant's adaptation state.
// Each tenant's optimizer gets a seed derived from the service seed
// and the tenant's name, so per-tenant adaptation replays
// deterministically regardless of arrival interleaving.
func (s *Service) tenant(id string) *tenant {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		cfg := s.cfg.Optimizer
		h := fnv.New64a()
		h.Write([]byte(id))
		cfg.Seed += int64(h.Sum64() % (1 << 32))
		t = &tenant{opt: optimizer.New(cfg)}
		s.tenants[id] = t
	}
	return t
}

// Admission exposes the service's admission controller.
func (s *Service) Admission() *Admission { return s.adm }

// CacheStats reports the shared plan cache's lifetime hit/miss counts
// (zeros when caching is disabled).
func (s *Service) CacheStats() (hits, misses int64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// fnv1a is the 64-bit FNV-1a of buf — the per-row term of the
// order-independent result checksum.
func fnv1a(buf []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range buf {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
