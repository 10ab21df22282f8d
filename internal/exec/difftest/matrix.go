// The differential matrix: every spec-stream oracle of the package runs
// through Run. A Workload is a set of tables, an optimizer config, a
// memory budget and a stream of query specs; a Cell is where the stream
// runs — a surface (session.Session or serve.Service) over a fabric
// (one node, N simulated nodes, or N fragments over TCP on W in-process
// workers). Every cell checks one post-condition after each query:
//
//   - the rows equal RefSpec's reference answer;
//   - the session's executor budget (every node's share), or the
//     service's admission reservation, is back to 0;
//   - the spill root, os.TempDir (where TCP workers spill too), holds
//     nothing but the TCP workers' own directories;
//   - over TCP, the query reports what its simulated twin reports
//     (SameOutcome) and, on N > 1 unbudgeted nodes, the same simulated
//     seconds and exchange counters.
//
// After the stream, every row must be stored exactly once in the
// cell's store, whatever the optimizer did to its layout.
package difftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
)

// Workload is one differential scenario. A workload that runs over TCP
// must come from a generator (Gen, Seed, Index): each worker rebuilds
// its replica from those alone.
type Workload struct {
	Gen    string
	Seed   int64
	Index  int
	Tables []SpecTable
	// LoadOpts loads every table; table i loads with seed Seed+i.
	LoadOpts  core.LoadOptions
	Optimizer optimizer.Config
	// Budget is the memory budget in bytes (0 = unlimited): a session's
	// operator budget; a service gets an admission pool that admits
	// every query, whose per-query budgets then follow the planner's
	// footprint estimate.
	Budget int64
	Stream []query.Spec
}

func (w Workload) String() string {
	return fmt.Sprintf("%s seed=%d index=%d budget=%d", w.Gen, w.Seed, w.Index, w.Budget)
}

// Load loads the tables over a fresh nodes-wide store and returns the
// catalog for binding.
func (w Workload) Load(nodes int) (*dfs.Store, query.Catalog, error) {
	store := dfs.NewStore(nodes, 2, w.Seed)
	cat := query.Catalog{}
	for i, t := range w.Tables {
		opts := w.LoadOpts
		opts.Seed = w.Seed + int64(i)
		ct, err := core.Load(store, t.Name, t.Sch, t.Rows, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", t.Name, err)
		}
		cat[t.Name] = ct
	}
	return store, cat, nil
}

func (w Workload) rowBytes() int64 {
	var n int64
	for _, t := range w.Tables {
		n += rowsMemBytes(t.Rows)
	}
	return n
}

// generators rebuild workloads by name inside TCP workers; the
// package's tests add their pinned workloads.
var generators = map[string]func(seed int64, index int) Workload{
	"spec":  func(seed int64, _ int) Workload { return GenSpecCase(seed) },
	"mixed": func(seed int64, _ int) Workload { return GenMixedCase(seed) },
}

// datasetName is the one TCP dataset: each worker rebuilds the workload
// from datasetParams and loads it over the cluster's fragments.
const datasetName = "difftest"

type datasetParams struct {
	Gen          string
	Seed         int64
	Index, Nodes int
}

// RegisterDataset installs the workload dataset builder; test mains
// call it before adbnet.MaybeWorker so re-exec'd worker processes can
// rebuild their replicas.
func RegisterDataset() {
	adbnet.RegisterDataset(datasetName, func(raw json.RawMessage) (*dfs.Store, query.Catalog, error) {
		var p datasetParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, nil, fmt.Errorf("difftest: decode dataset params: %w", err)
		}
		gen, ok := generators[p.Gen]
		if !ok {
			return nil, nil, fmt.Errorf("difftest: no workload generator %q", p.Gen)
		}
		return gen(p.Seed, p.Index).Load(p.Nodes)
	})
}

// Cell is where a workload runs: a surface over a fabric.
type Cell struct {
	// Serve runs the stream through one serve.Service instead of a
	// session.
	Serve bool
	// Nodes is the store's node count: 1 runs on the one-node fabric,
	// more on the simulated NodeSet, or over TCP with Workers.
	Nodes int
	// Workers > 0 runs the Nodes fragments over TCP on this many
	// in-process workers.
	Workers int
}

func (c Cell) String() string {
	switch {
	case c.Workers > 0:
		return fmt.Sprintf("tcp[nodes=%d,workers=%d]", c.Nodes, c.Workers)
	case c.Serve:
		return fmt.Sprintf("serve[nodes=%d]", c.Nodes)
	}
	return fmt.Sprintf("session[nodes=%d]", c.Nodes)
}

// Stats says what a run exercised, so a test can tell a vacuous pass
// from a real one: the stream's query shapes and budget, and what its
// queries did.
type Stats struct {
	Queries, Grouped, Global, Plain, Budgeted, MultiAttrEdges, ExtraEdges int
	RefRows, HyperJoins, MovedRows, FullRepartitions, AmoebaTransforms    int
	SpillRows, FilteredRows                                               float64
}

func (st *Stats) add(o Stats) {
	st.Queries += o.Queries
	st.Grouped += o.Grouped
	st.Global += o.Global
	st.Plain += o.Plain
	st.Budgeted += o.Budgeted
	st.MultiAttrEdges += o.MultiAttrEdges
	st.ExtraEdges += o.ExtraEdges
	st.RefRows += o.RefRows
	st.HyperJoins += o.HyperJoins
	st.MovedRows += o.MovedRows
	st.FullRepartitions += o.FullRepartitions
	st.AmoebaTransforms += o.AmoebaTransforms
	st.SpillRows += o.SpillRows
	st.FilteredRows += o.FilteredRows
}

func (st *Stats) count(spec query.Spec, budget int64, res *session.Result, refRows int) {
	st.Queries++
	switch {
	case len(spec.GroupBy) > 0:
		st.Grouped++
	case len(spec.Aggs) > 0:
		st.Global++
	default:
		st.Plain++
	}
	if budget > 0 {
		st.Budgeted++
	}
	for _, e := range spec.Joins {
		if len(e.Left) > 1 {
			st.MultiAttrEdges++
		}
	}
	if len(spec.Joins) > len(spec.Tables)-1 {
		st.ExtraEdges++
	}
	st.RefRows += refRows
	for _, j := range res.Report.Joins {
		if j.Strategy == planner.StratHyper {
			st.HyperJoins++
		}
	}
	st.MovedRows += res.Adapt.MovedRows
	st.FullRepartitions += res.Adapt.FullRepartitions
	st.AmoebaTransforms += res.Adapt.AmoebaTransforms
	st.SpillRows += res.Counters.SpillRows
	st.FilteredRows += res.Counters.ExchFilteredRows
}

// Run replays the workload's stream in the cell and checks the matrix's
// post-condition after every query and after the stream (see the file
// comment). Each run loads its own stores, so layouts never leak
// between cells. The caller points TMPDIR at a directory of its own:
// anything else there fails the spill check.
func Run(w Workload, c Cell) (Stats, error) {
	var st Stats
	fail := func(err error) (Stats, error) { return st, fmt.Errorf("%s: %s: %w", w, c, err) }
	if c.Serve && c.Workers > 0 {
		return fail(errors.New("serve runs on the simulated fabrics only"))
	}
	store, cat, err := w.Load(c.Nodes)
	if err != nil {
		return fail(err)
	}
	cfg := session.Config{Optimizer: w.Optimizer, MemBudget: w.Budget, Distributed: c.Nodes > 1}
	var (
		run     func(session.Query) (*session.Result, error)
		charged func() int64
		twin    *session.Session
		twinCat query.Catalog
	)
	if c.Serve {
		pool := int64(0)
		if w.Budget > 0 {
			pool = 1 << 30
		}
		svc := serve.New(store, serve.Config{Optimizer: w.Optimizer, MemBudget: pool, Distributed: c.Nodes > 1})
		run = func(q session.Query) (*session.Result, error) {
			res, err := svc.Execute(context.Background(), "difftest", q)
			return &res.Result, err
		}
		charged = func() int64 { return svc.Admission().Stats().Reserved }
	} else {
		if c.Workers > 0 {
			twinStore, tc, err := w.Load(c.Nodes)
			if err != nil {
				return fail(err)
			}
			twin, twinCat = session.New(twinStore, cfg), tc
			o := w.Optimizer
			cl, err := adbnet.Start(adbnet.Options{
				Workers: c.Workers, Fragments: c.Nodes,
				Dataset: datasetName,
				Params:  datasetParams{Gen: w.Gen, Seed: w.Seed, Index: w.Index, Nodes: c.Nodes},
				Exec: adbnet.ExecConfig{
					MemBudget: w.Budget,
					Optimizer: adbnet.OptimizerConfig{Mode: int(o.Mode), WindowSize: o.WindowSize, FMin: o.FMin, Amoeba: o.EnableAmoeba, Seed: o.Seed},
				},
				InProcess: true,
				KeepAlive: 500 * time.Millisecond,
			})
			if err != nil {
				return fail(fmt.Errorf("start cluster: %w", err))
			}
			defer cl.Close()
			cfg.Net = cl
		}
		s := session.New(store, cfg)
		run = s.Execute
		charged = func() int64 { return budgetUsed(s.Executor()) }
	}

	for i, spec := range w.Stream {
		what := fmt.Sprintf("query %d (%s)", i, spec.Label)
		q, err := session.FromSpec(cat, spec)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", what, err))
		}
		res, err := run(q)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", what, err))
		}
		want := RefSpec(w.Tables, q.Spec)
		if err := diffRows(what, res.Rows, want); err != nil {
			return fail(err)
		}
		if twin != nil {
			if err := matchTwin(what, twin, twinCat, spec, res, want, c.Nodes > 1 && w.Budget == 0); err != nil {
				return fail(err)
			}
		}
		if n := charged(); n != 0 {
			return fail(fmt.Errorf("%s left %d budget bytes charged", what, n))
		}
		if left, err := spillLeftovers(os.TempDir()); err != nil || len(left) != 0 {
			return fail(fmt.Errorf("%s left %v in the spill dir (%v)", what, left, err))
		}
		st.count(spec, w.Budget, res, len(want))
	}
	for _, t := range w.Tables {
		var stored []tuple.Tuple
		for _, ref := range cat[t.Name].AllRefs(nil) {
			blk, _, err := store.GetBlock(ref.Path, 0)
			if err != nil {
				return fail(err)
			}
			stored = append(stored, blk.Rows()...)
		}
		if err := diffRows("stored "+t.Name, stored, slices.Clone(t.Rows)); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// matchTwin runs the query on the TCP cell's simulated twin and checks
// the twin against the reference and the TCP result against the twin.
// Both N-node fabrics drive their exchanges through one producer over
// the same filters, so unless a budget makes demotion timing-dependent
// (exact unset) they move, drop and meter the same rows. (At one node
// the twin is the one-node fabric, which moves nothing.)
func matchTwin(what string, twin *session.Session, cat query.Catalog, spec query.Spec, res *session.Result, want []tuple.Tuple, exact bool) error {
	q, err := session.FromSpec(cat, spec)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	sim, err := twin.Execute(q)
	if err != nil {
		return fmt.Errorf("%s on the simulated twin: %w", what, err)
	}
	if err := diffRows(what+" on the simulated twin", sim.Rows, want); err != nil {
		return err
	}
	exch := func(c cluster.Counters) [4]float64 {
		return [4]float64{c.ExchLocalRows, c.ExchRemoteRows, c.ExchBytes, c.ExchFilteredRows}
	}
	if exact && exch(res.Counters) != exch(sim.Counters) {
		return fmt.Errorf("%s metered local, remote rows, bytes, dropped rows %v; sim %v", what, exch(res.Counters), exch(sim.Counters))
	}
	return SameOutcome(what+" vs sim", res, sim, exact)
}

// budgetUsed sums what an executor's budget and every node view's share
// hold charged.
func budgetUsed(ex *exec.Executor) int64 {
	used := ex.Mem.Used()
	if ns := ex.Nodes(); ns != nil {
		for i := 0; i < ns.N(); i++ {
			used += ns.At(i).Mem.Used()
		}
	}
	return used
}

// spillLeftovers lists what a finished query must not leave under the
// spill root: anything but the (empty) per-worker directories a TCP
// cluster keeps there for its lifetime.
func spillLeftovers(root string) ([]string, error) {
	var left []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() && filepath.Dir(path) == root && strings.HasPrefix(d.Name(), "adaptdb-net-w") {
			return nil
		}
		left = append(left, path)
		return nil
	})
	return left, err
}

// SameOutcome checks that a query run over TCP reports what the same
// query reported on the simulated fabric: the adaptation, every join's
// strategy, output rows and hyper-join reads, and every operator's
// label, node, output rows and width. The TCP coordinator computes none of
// these itself; it merges them from the workers. simSeconds also
// demands bit-equal simulated seconds — only meaningful against the
// N-node simulated fabric (the one-node fabric prices exchanges by
// class) and without a budget (demotion order moves spill counters).
func SameOutcome(what string, tcp, sim *session.Result, simSeconds bool) error {
	if tcp.Adapt != sim.Adapt {
		return fmt.Errorf("%s: adaptation %+v, sim %+v", what, tcp.Adapt, sim.Adapt)
	}
	if simSeconds && tcp.SimSeconds != sim.SimSeconds {
		return fmt.Errorf("%s: %v sim-s, sim %v", what, tcp.SimSeconds, sim.SimSeconds)
	}
	if !slices.Equal(tcp.Report.Joins, sim.Report.Joins) {
		return fmt.Errorf("%s: joins %+v, sim %+v", what, tcp.Report.Joins, sim.Report.Joins)
	}
	row := func(op exec.OpStats) string {
		return fmt.Sprintf("%s@%d:%d rows of %d cols", op.Label, op.Node, op.Rows, op.Cols)
	}
	if len(tcp.Ops) != len(sim.Ops) {
		return fmt.Errorf("%s: %d operators, sim %d", what, len(tcp.Ops), len(sim.Ops))
	}
	for i := range tcp.Ops {
		if a, b := row(tcp.Ops[i]), row(sim.Ops[i]); a != b {
			return fmt.Errorf("%s: operator %d is %s, sim %s", what, i, a, b)
		}
	}
	return nil
}
