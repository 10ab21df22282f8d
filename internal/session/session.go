// Package session drives AdaptDB's full adaptive loop in one process
// off one API — the paper's Fig. 2 storage-manager lifecycle as a
// query-stream service. A Session accepts a stream of planner queries,
// and Run — the one per-query loop, shared by the TCP path and the
// serving layer — for each one
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
// Over TCP (Config.Net) the workers run steps 1 and 2 on their own
// replicas, and the coordinator drains the root gather and merges what
// they report (net.go).
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
// form) or an executable plan tree (the compiler IR). Whichever it
// carries decides its votes (Uses), its compile and its footprint.
type Query struct {
	// Label tags results (e.g. the TPC-H template name); informational.
	Label string
	// Spec is the bound declarative query — the public query surface.
	// When set, the session lowers it with greedy join ordering
	// (planner.CompileSpec) and Plan is ignored. Build one with
	// FromSpec.
	Spec *query.Bound
	// Plan is the query's join tree over loaded tables — the planner's
	// internal IR, for shapes a left-deep spec cannot express (the
	// bushy TPC-H q8 of §4.3) and for hand-built plans in tests.
	Plan planner.Node
}

// Uses derives how the query touches each table (join attribute +
// predicates) — the votes the optimizer records into workload windows
// before adapting: from the join graph for a spec, from the plan tree
// (planner.Uses) for a plan.
func (q Query) Uses() []optimizer.TableUse {
	if q.Spec != nil {
		return q.Spec.Uses()
	}
	return planner.Uses(q.Plan)
}

// Compile lowers the query to an operator DAG with r.
func (q Query) Compile(r *planner.Runner) (*planner.Compiled, error) {
	if q.Spec != nil {
		return r.CompileSpec(q.Spec)
	}
	return r.Compile(q.Plan)
}

// Footprint is r's estimate of the query's peak operator memory.
func (q Query) Footprint(r *planner.Runner) int64 {
	if q.Spec != nil {
		return r.EstimateSpecFootprint(q.Spec)
	}
	return r.EstimateFootprint(q.Plan)
}

// FromSpec binds a declarative spec against the catalog and wraps it
// as a stream query.
func FromSpec(cat query.Catalog, s query.Spec) (Query, error) {
	b, err := s.Bind(cat)
	if err != nil {
		return Query{}, err
	}
	return Query{Label: s.Label, Spec: b}, nil
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
	// Distributed enables the simulated per-node execution fabric:
	// every store node gets its own executor (one worker + meter shard),
	// scans run where their blocks live, and exchanges move rows between
	// the nodes. Without it the same plans compile onto the one-node
	// fabric of a central pool. Query results are identical either way;
	// the one-node fabric meters each exchanged row at its plan edge's
	// eq. 1 class, the simulated fabric meters the rows that cross nodes.
	Distributed bool
	// Net switches the exchange transport from the in-process simulated
	// fabric to a running TCP cluster (see internal/net): queries
	// dispatch to real worker processes, which adapt their replicas and
	// compile, and results gather back over sockets, with transparent
	// replica failover on worker death. The session's store only binds
	// specs: it must hold the tables of the dataset the cluster's workers
	// built, and its layout never changes. Implies Distributed.
	Net *adbnet.Cluster
}

// Session executes a query stream with adaptation interleaved.
// Not safe for concurrent use: queries are a stream, and adaptation
// between them mutates table layouts.
type Session struct {
	runner *planner.Runner
	opt    *optimizer.Optimizer
	net    *adbnet.Cluster
	seq    int
}

// New builds a session over a store.
func New(store *dfs.Store, cfg Config) *Session {
	model := cfg.Model
	if model == (cluster.CostModel{}) {
		model = cluster.Default()
	}
	ex := exec.New(store, &cluster.Meter{})
	ex.Mem = exec.NewMemBudget(cfg.MemBudget)
	ex.SpillDir = cfg.SpillDir
	if cfg.Distributed || cfg.Net != nil {
		// After the budget: EnableNodes splits it into per-node shares.
		ex.EnableNodes(0)
	}
	runner := planner.NewRunner(ex, model)
	if cfg.BudgetBlocks > 0 {
		runner.BudgetBlocks = cfg.BudgetBlocks
	}
	runner.ForceShuffle = cfg.ForceShuffle
	return &Session{runner: runner, opt: optimizer.New(cfg.Optimizer), net: cfg.Net}
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
	// post-order. Over TCP its numbers sum the workers' reports.
	Report *planner.Report
	// Ops holds per-operator stats (rows, batches, inclusive wall ns)
	// for every operator of the compiled DAG, in compile order; over TCP
	// each comes from the process that hosted the operator.
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
// materializes the result rows: Stream with a collecting sink.
func (s *Session) Execute(q Query) (*Result, error) {
	var rows []tuple.Tuple
	res, err := s.Stream(q, Collect(&rows))
	res.Rows = rows
	return res, err
}

// Stream runs one query of the stream without materializing the
// result: each output batch is passed to sink (which may be nil to
// just count rows). The batch is only valid during the call — sink
// must box any rows it wants to retain (exec.Batch.Rows).
func (s *Session) Stream(q Query, sink func(*exec.Batch) error) (*Result, error) {
	st := Step{Runner: s.runner, Seq: s.seq, Adapt: s.opt.OnQuery, Net: s.net}
	s.seq++
	return Run(context.TODO(), st, q, sink)
}

// Collect returns a sink that boxes every batch's rows onto *rows —
// what Execute streams into.
func Collect(rows *[]tuple.Tuple) func(*exec.Batch) error {
	return func(b *exec.Batch) error {
		*rows = append(*rows, b.Rows()...)
		return nil
	}
}

// Step is what Run needs beyond the query: the runner whose executor
// (Runner.Ex, with its meter) and cost model (Runner.Model) the query
// runs on, its stream position, how it adapts, and its transport.
type Step struct {
	Runner *planner.Runner
	// Seq is the query's stream position; over TCP the workers adapt
	// once per Seq.
	Seq int
	// Adapt runs the optimizer on the query's votes, metering migration
	// I/O into the given meter. nil means the caller already adapted.
	// Over TCP it is never called: each worker adapts its own replica.
	Adapt func([]optimizer.TableUse, *cluster.Meter) (optimizer.StepReport, error)
	// Net, when set, runs the query over the TCP cluster (runNet).
	Net *adbnet.Cluster
}

// Run is the one per-query loop — adapt, compile, drain into sink (nil
// just counts) — for the session's simulated and TCP paths and the
// serving layer alike. Whatever happens, including a compile or drain
// error, the query's metered I/O (the node shards folded in first — the
// "merge once per query" point) is captured into the result and the
// meter reset, so a failed query never leaks counters into the next
// one's accounting.
func Run(ctx context.Context, st Step, q Query, sink func(*exec.Batch) error) (*Result, error) {
	ex := st.Runner.Ex
	res := &Result{Seq: st.Seq, Label: q.Label}
	start := time.Now()
	defer func() {
		if ns := ex.Nodes(); ns != nil {
			ns.Flush()
		}
		res.Wall = time.Since(start)
		res.Counters = ex.Meter.Reset()
		res.SimSeconds = res.Counters.SimSeconds(st.Runner.Model)
	}()
	if st.Net != nil {
		return res, runNet(ctx, st, q, sink, res)
	}

	// Adapt first: the query joins the windows, and smooth
	// repartitioning migrates blocks before execution, so this query
	// already scans the trees it voted for. Migration I/O lands on this
	// query's meter (the paper's per-query accounting).
	if st.Adapt != nil {
		adapt, err := st.Adapt(q.Uses(), ex.Meter)
		if err != nil {
			return res, fmt.Errorf("session: adapt %q: %w", q.Label, err)
		}
		res.Adapt = adapt
	}
	comp, err := q.Compile(st.Runner)
	if err != nil {
		return res, fmt.Errorf("session: compile %q: %w", q.Label, err)
	}
	res.Report = comp.Report
	res.RowCount, err = exec.Drain(ctx, comp.Root, sink)
	res.Ops = comp.OpStats()
	if err != nil {
		return res, fmt.Errorf("session: execute %q: %w", q.Label, err)
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
// The one operator above the root gather (node -1: a grouped spec's
// group-by) folds into the leading -1 entry. A centralized session runs
// on the one-node fabric, so its fragments fold into node 0. Empty when
// every operator ran above the gather (a provably empty grouped spec).
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
			// Everything ran above the gather; per-node loads would be
			// meaningless.
			break
		}
		out = append(out, *byNode[n])
	}
	return out
}

// Executor exposes the underlying executor (workers, pruning flags).
func (s *Session) Executor() *exec.Executor { return s.runner.Ex }
