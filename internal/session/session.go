// Package session drives AdaptDB's full adaptive loop in one process
// off one API — the paper's Fig. 2 storage-manager lifecycle as a
// query-stream service. A Session accepts a stream of planner queries;
// for each one it
//
//  1. records how the query touches every table into that table's
//     workload.Window and runs the optimizer's smooth-repartitioning
//     step (§5.2, Fig. 11) — trees are created, blocks migrate, and
//     drained trees are dropped between queries while the stream runs;
//  2. compiles the plan tree (arbitrary depth, not just two-table)
//     into a DAG of exec.Operators via planner.Compile — pipelined
//     scans with predicate pushdown and the cost-model-selected
//     hyper / shuffle / combination / semi-shuffle join strategies as
//     operator choices, with no intermediate whole-table slice
//     materialization anywhere on the path;
//  3. drains the DAG through the executor's bounded worker pool,
//     collecting per-operator stats (rows / batches / wall ns), the
//     per-join strategy report, and the metered I/O priced by the §4.2
//     cost model.
//
// Repartitioning I/O is metered into the triggering query's counters,
// so per-query SimSeconds reflect adaptation overhead exactly as the
// paper's per-query latency plots do. All randomness (migration bucket
// choice, new-tree build seeds) descends from Config.Seed, so a
// session run replays bit-identically.
package session

import (
	"context"
	"fmt"
	"sort"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/tuple"
)

// Query is one query of the stream: a declarative spec (the public
// form) or an executable plan tree (the compiler IR), plus the
// per-table touch descriptors that feed the query windows.
type Query struct {
	// Label tags results (e.g. the TPC-H template name); informational.
	Label string
	// Spec is the bound declarative query — the public query surface.
	// When set, the session lowers it with greedy join ordering
	// (planner.CompileSpec) and Plan is ignored. Build one with
	// FromSpec, which also derives Uses.
	Spec *query.Bound
	// Plan is the query's join tree over loaded tables — the planner's
	// internal IR, still accepted for hand-built plans and tests.
	Plan planner.Node
	// Uses describes how the query touches each table (join attribute +
	// predicates) — what the optimizer records into workload windows
	// before adapting. A query that should not influence adaptation may
	// leave it nil. FromSpec derives it from the join graph.
	Uses []optimizer.TableUse
}

// FromSpec binds a declarative spec against the catalog and wraps it
// as a stream query, deriving the optimizer touch descriptors from the
// join graph — no hand-maintained Uses lists.
func FromSpec(cat query.Catalog, s query.Spec) (Query, error) {
	b, err := s.Bind(cat)
	if err != nil {
		return Query{}, err
	}
	return Query{Label: s.Label, Spec: b, Uses: b.Uses()}, nil
}

// Config tunes a session.
type Config struct {
	// Model prices metered I/O; zero value means cluster.Default().
	Model cluster.CostModel
	// Optimizer configures adaptation (mode, window size, fmin, seed).
	// Zero value means ModeAdaptive with the paper's defaults.
	Optimizer optimizer.Config
	// BudgetBlocks is the hyper-join memory budget in blocks (0 = the
	// planner default of 4).
	BudgetBlocks int
	// ForceShuffle disables hyper-join (baseline configurations).
	ForceShuffle bool
	// Workers bounds executor parallelism; 0 = one per store node.
	Workers int
	// MemBudget bounds operator memory in bytes (0 = unlimited): hash
	// joins charge their build sides against it and demote partitions to
	// disk run files under pressure — the spilling hybrid hash join. In
	// distributed mode the budget splits into equal per-node shares.
	// Per-operator spill volume lands in OpStats.SpilledBytes and the
	// query's Counters.SpillRows/SpillBytes.
	MemBudget int64
	// SpillDir is where budget-pressured joins put run files ("" = the
	// OS temp dir).
	SpillDir string
	// Distributed enables the per-node execution fabric: every store
	// node gets its own executor (worker pool + meter shard), scans run
	// where their blocks live, and joins move rows through exchange
	// operators instead of a central pool. Query results are identical
	// to centralized mode; the metered I/O switches from call-site
	// shuffle charges to exchange-side network accounting.
	Distributed bool
	// WorkersPerNode bounds each node executor's parallelism in
	// distributed mode (0 = one worker per node, so aggregate
	// parallelism scales with the cluster).
	WorkersPerNode int
	// Net switches the exchange transport from the in-process simulated
	// fabric to a running TCP cluster (see internal/net): queries
	// dispatch to real worker processes and results gather back over
	// sockets, with transparent replica failover on worker death. The
	// session's store must be the coordinator replica of the same
	// dataset the cluster's workers built, with NumNodes equal to the
	// cluster's fragment count. Implies Distributed.
	Net *adbnet.Cluster
}

// Session executes a query stream with adaptation interleaved.
// Not safe for concurrent use: queries are a stream, and adaptation
// between them mutates table layouts.
type Session struct {
	ex     *exec.Executor
	runner *planner.Runner
	opt    *optimizer.Optimizer
	model  cluster.CostModel
	meter  *cluster.Meter
	net    *adbnet.Cluster
	seq    int
}

// New builds a session over a store.
func New(store *dfs.Store, cfg Config) *Session {
	model := cfg.Model
	if model == (cluster.CostModel{}) {
		model = cluster.Default()
	}
	meter := &cluster.Meter{}
	ex := exec.New(store, meter)
	ex.Workers = cfg.Workers
	ex.Mem = exec.NewMemBudget(cfg.MemBudget)
	ex.SpillDir = cfg.SpillDir
	if cfg.Distributed || cfg.Net != nil {
		// After the budget: EnableNodes splits it into per-node shares.
		ex.EnableNodes(cfg.WorkersPerNode)
	}
	runner := planner.NewRunner(ex, model)
	if cfg.BudgetBlocks > 0 {
		runner.BudgetBlocks = cfg.BudgetBlocks
	}
	runner.ForceShuffle = cfg.ForceShuffle
	return &Session{
		ex:     ex,
		runner: runner,
		opt:    optimizer.New(cfg.Optimizer),
		model:  model,
		meter:  meter,
		net:    cfg.Net,
	}
}

// Result reports what one query of the stream did.
type Result struct {
	// Seq is the query's position in the stream (0-based).
	Seq int
	// Label echoes Query.Label.
	Label string
	// Rows holds the materialized result (Execute only; nil for Stream).
	Rows []tuple.Tuple
	// RowCount is the result cardinality, set on both paths.
	RowCount int
	// Report lists the join strategy picked per join, in plan
	// post-order.
	Report *planner.Report
	// Ops holds per-operator stats (rows, batches, inclusive wall ns)
	// for every operator of the compiled DAG, in compile order.
	Ops []exec.OpStats
	// Adapt summarizes the smooth-repartitioning work this query
	// triggered (trees created, rows migrated).
	Adapt optimizer.StepReport
	// Counters is the query's metered I/O, including migration I/O.
	Counters cluster.Counters
	// SimSeconds prices Counters with the session's cost model.
	SimSeconds float64
	// Wall is the real time spent adapting + executing.
	Wall time.Duration
}

// Execute runs one query of the stream — adapt, compile, drain — and
// materializes the result rows.
func (s *Session) Execute(q Query) (*Result, error) {
	return s.run(q, true, nil)
}

// Stream runs one query of the stream without materializing the
// result: each output batch is passed to sink (which may be nil to
// just count rows). The batch is only valid during the call — sink
// must box any rows it wants to retain (exec.Batch.Rows).
func (s *Session) Stream(q Query, sink func(*exec.Batch) error) (*Result, error) {
	return s.run(q, false, sink)
}

// ExecuteContext is Execute under a cancellation context: operator
// drain loops check ctx at batch boundaries and the query errors with
// ctx.Err() once it is cancelled or past deadline. The context binds
// to the session's executor for the duration of the call (sessions are
// single-stream, so no other query can observe it).
func (s *Session) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	s.ex.BindContext(ctx)
	defer s.ex.BindContext(nil)
	return s.run(q, true, nil)
}

// StreamContext is Stream under a cancellation context (see
// ExecuteContext).
func (s *Session) StreamContext(ctx context.Context, q Query, sink func(*exec.Batch) error) (*Result, error) {
	s.ex.BindContext(ctx)
	defer s.ex.BindContext(nil)
	return s.run(q, false, sink)
}

func (s *Session) run(q Query, collect bool, sink func(*exec.Batch) error) (*Result, error) {
	if s.net != nil {
		return s.runNet(q, collect, sink)
	}
	res := &Result{Seq: s.seq, Label: q.Label}
	s.seq++
	start := time.Now()
	// Whatever happens — including a compile or execution error — this
	// query's metered I/O is captured into its result and the shared
	// meter is reset, so a failed query never leaks counters into the
	// next one's accounting. In distributed mode the per-node meter
	// shards are folded in first — the "merge once per query" point.
	defer func() {
		if ns := s.ex.Nodes(); ns != nil {
			ns.Flush()
		}
		res.Wall = time.Since(start)
		res.Counters = s.meter.Reset()
		res.SimSeconds = res.Counters.SimSeconds(s.model)
	}()

	// Adapt first: the query joins the windows, and smooth
	// repartitioning migrates blocks before execution, so this query
	// already scans the trees it voted for. Migration I/O lands on this
	// query's meter (the paper's per-query accounting).
	adapt, err := s.opt.OnQuery(q.Uses, s.meter)
	if err != nil {
		return res, fmt.Errorf("session: adapt %q: %w", q.Label, err)
	}
	res.Adapt = adapt

	var comp *planner.Compiled
	if q.Spec != nil {
		comp, err = s.runner.CompileSpec(q.Spec)
	} else {
		comp, err = s.runner.Compile(q.Plan)
	}
	if err != nil {
		return res, fmt.Errorf("session: compile %q: %w", q.Label, err)
	}
	res.Report = comp.Report
	defer func() { res.Ops = comp.OpStats() }()
	if collect {
		rows, err := exec.Collect(comp.Root)
		if err != nil {
			return res, fmt.Errorf("session: execute %q: %w", q.Label, err)
		}
		res.Rows, res.RowCount = rows, len(rows)
	} else {
		// nil ctx: the operators observe the context StreamContext bound
		// to the executor.
		n, err := exec.Drain(nil, comp.Root, sink)
		if err != nil {
			return res, fmt.Errorf("session: execute %q: %w", q.Label, err)
		}
		res.RowCount = n
	}
	return res, nil
}

// NodeLoad aggregates one node's share of a query's work — rows and
// wall time summed over every operator that ran at the node. Comparing
// entries exposes execution skew (one node scanning or joining far more
// than its peers).
type NodeLoad struct {
	Node    int
	Ops     int
	Rows    int64
	Batches int64
	WallNs  int64
}

// PerNode folds the per-operator stats by execution node, ascending.
// Coordinator-side operators (node -1, e.g. a gathered hyper-join) fold
// into the leading -1 entry. Empty in centralized mode, where no
// operator carries a node tag.
func (r *Result) PerNode() []NodeLoad {
	byNode := map[int]*NodeLoad{}
	for _, op := range r.Ops {
		nl, ok := byNode[op.Node]
		if !ok {
			nl = &NodeLoad{Node: op.Node}
			byNode[nl.Node] = nl
		}
		nl.Ops++
		nl.Rows += op.Rows
		nl.Batches += op.Batches
		nl.WallNs += op.WallNs
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([]NodeLoad, 0, len(nodes))
	for _, n := range nodes {
		if n < 0 && len(byNode) == 1 {
			// Centralized runs tag everything -1; per-node loads would
			// be meaningless.
			break
		}
		out = append(out, *byNode[n])
	}
	return out
}

// Queries returns how many queries the session has executed.
func (s *Session) Queries() int { return s.seq }

// Optimizer exposes the session's optimizer — its query windows and
// per-table smooth managers — for inspection and tests.
func (s *Session) Optimizer() *optimizer.Optimizer { return s.opt }

// Executor exposes the underlying executor (workers, pruning flags).
func (s *Session) Executor() *exec.Executor { return s.ex }

// Runner exposes the planner runner the session compiles with.
func (s *Session) Runner() *planner.Runner { return s.runner }
