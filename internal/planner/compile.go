// The plan→Operator compiler: turns a plan tree of arbitrary depth into
// one executable DAG of exec.Operators, with the optimizer-selected
// join strategies (hyper / shuffle / combination / semi-shuffle) chosen
// per join at compile time from block metadata alone — no slice
// materialization anywhere on the path. Runner.Run is now a Collect
// adapter over Compile; sessions (internal/session) drain the DAG
// batch by batch instead.
package planner

import (
	"fmt"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
)

// Compiled is an executable operator DAG plus the report its run will
// fill in. Report entries (strategy per join) are fixed at compile
// time; row counts and hyper-join stats land when the corresponding
// operator's stream is drained — after Collect, Count, or a manual
// drain of Root, the Report is complete.
type Compiled struct {
	Root   exec.Operator
	Report *Report
	ops    []*exec.Instrumented
}

// OpStats snapshots the per-operator counters (rows, batches,
// inclusive wall time) in compile order — scans and joins alike. Call
// after draining Root; partial drains yield partial counts.
func (c *Compiled) OpStats() []exec.OpStats {
	out := make([]exec.OpStats, len(c.ops))
	for i, op := range c.ops {
		out[i] = op.Stats()
	}
	return out
}

// Compile lowers a plan tree into a pipelined operator DAG. Join
// strategies are decided per join with the §5.4 cost comparison over
// block zone maps; every operator is instrumented, and the returned
// Compiled's Report mirrors the legacy Run report (same entries, same
// post-order) once the DAG is drained. The caller owns the lifecycle
// of Root (Open/Next/Close, or exec.Collect / exec.Count).
func (r *Runner) Compile(n Node) (*Compiled, error) {
	defer r.memoRefs()()
	c := &Compiled{Report: &Report{}}
	if fb := r.Ex.ExecFabric(); fb != nil {
		// Distributed regime: per-node fragments wired with exchanges
		// (distributed.go) over whatever fabric is installed — simulated
		// NodeSet or TCP; the root gathers every node's stream.
		d, err := r.compileDist(n, c)
		if err != nil {
			return nil, err
		}
		c.Root = d.toGlobal(fb)
		return c, nil
	}
	op, err := r.compile(n, c)
	if err != nil {
		return nil, err
	}
	c.Root = op
	return c, nil
}

// instrument wraps op with stats collection and registers it with the
// compiled DAG.
func (r *Runner) instrument(c *Compiled, label string, op exec.Operator, onDone func(exec.OpStats)) exec.Operator {
	in := exec.Instrument(label, op, onDone)
	c.ops = append(c.ops, in)
	return in
}

func (r *Runner) compile(n Node, c *Compiled) (exec.Operator, error) {
	switch nd := n.(type) {
	case *Scan:
		label := "scan(" + nd.Table.Name + ")"
		return r.instrument(c, label, r.scanOp(nd), nil), nil
	case *Join:
		return r.compileJoin(nd, c)
	default:
		return nil, fmt.Errorf("planner: unknown node %T", n)
	}
}

func (r *Runner) compileJoin(j *Join, c *Compiled) (exec.Operator, error) {
	lScan, lIsScan := j.Left.(*Scan)
	rScan, rIsScan := j.Right.(*Scan)
	switch {
	case lIsScan && rIsScan:
		return r.compileTableJoin(j, lScan, rScan, c)
	case rIsScan:
		// Intermediate ⋈ base table (§4.3): the sub-plan streams into the
		// build side, the base table streams through the probe side.
		build, err := r.compile(j.Left, c)
		if err != nil {
			return nil, err
		}
		return r.compileSemiShuffle(c, build, r.estimateRows(j.Left), j.LCol, rScan, j.RCol, false), nil
	case lIsScan:
		build, err := r.compile(j.Right, c)
		if err != nil {
			return nil, err
		}
		return r.compileSemiShuffle(c, build, r.estimateRows(j.Right), j.RCol, lScan, j.LCol, true), nil
	default:
		// Two intermediates: both sub-DAGs stream into a pipelined hash
		// join, charged at the cheaper intermediate-shuffle rate. Build
		// on the side the metadata estimates smaller (q8's bushy plan
		// builds on orders⋈customer, streams lineitem⋈part through).
		lOp, err := r.compile(j.Left, c)
		if err != nil {
			return nil, err
		}
		rOp, err := r.compile(j.Right, c)
		if err != nil {
			return nil, err
		}
		opts := exec.JoinOptions{BuildCharge: exec.ChargeIntermediate, ProbeCharge: exec.ChargeIntermediate}
		build, probe := lOp, rOp
		bCol, pCol := j.LCol, j.RCol
		lEst, rEst := r.estimateRows(j.Left), r.estimateRows(j.Right)
		bEst := lEst
		if rEst < lEst {
			build, probe = rOp, lOp
			bCol, pCol = j.RCol, j.LCol
			opts.BuildIsRight = true
			bEst = rEst
		}
		opts.BuildRowsEst = r.estBuildRows(bEst)
		fill := r.reportJoin(c, JoinReport{Strategy: StratShuffle}, nil)
		op := r.Ex.JoinOp(build, bCol, probe, pCol, opts)
		return r.instrument(c, "join[shuffle](intermediates)", op, fill), nil
	}
}

// reportJoin appends a report entry for a join being compiled and
// returns the completion hook that fills its output row count (and, via
// hyper, the hyper-join statistics) once the join's stream has drained.
func (r *Runner) reportJoin(c *Compiled, jr JoinReport, hyper *exec.HyperJoinOp) func(exec.OpStats) {
	idx := len(c.Report.Joins)
	c.Report.Joins = append(c.Report.Joins, jr)
	rep := c.Report
	return func(st exec.OpStats) {
		rep.Joins[idx].OutputRows = int(st.Rows)
		if hyper != nil {
			hs := hyper.Stats()
			rep.Joins[idx].CHyJ = hs.CHyJ
			rep.Joins[idx].ProbeBlocks = hs.ProbeBlocks
		}
	}
}

// compileSemiShuffle lowers an intermediate ⋈ base-table join (§4.3):
// when the table has a tree on the join attribute only the intermediate
// shuffles and the table is read in place; otherwise the base table is
// charged the full shuffle rate too. tblFirst reports that the base
// table is the plan's left child (controls output column order).
func (r *Runner) compileSemiShuffle(c *Compiled, build exec.Operator, buildRows, buildCol int, sc *Scan, tblCol int, tblFirst bool) exec.Operator {
	strategy := StratSemiShuffle
	opts := exec.JoinOptions{
		BuildCharge:  exec.ChargeIntermediate,
		BuildIsRight: tblFirst,
		BuildRowsEst: r.estBuildRows(buildRows),
	}
	if r.ForceShuffle || sc.Table.TreeFor(tblCol) < 0 {
		// No tree on the join attribute: the base table shuffles too.
		opts.ProbeCharge = exec.ChargeShuffle
		strategy = StratShuffle
	}
	fill := r.reportJoin(c, JoinReport{Strategy: strategy}, nil)
	probe := r.instrument(c, "scan("+sc.Table.Name+")", r.scanOp(sc), nil)
	op := r.Ex.JoinOp(build, buildCol, probe, tblCol, opts)
	return r.instrument(c, "join["+strategy+"]("+sc.Table.Name+")", op, fill)
}

// compileTableJoin lowers a base-table ⋈ base-table join to the
// strategy planTableJoin picks from zone-map metadata.
func (r *Runner) compileTableJoin(j *Join, l, rt *Scan, c *Compiled) (exec.Operator, error) {
	p := r.cachedTableJoin(l, j.LCol, rt, j.RCol)
	pair := l.Table.Name + "⋈" + rt.Table.Name
	switch p.strategy {
	case StratShuffle:
		fill := r.reportJoin(c, JoinReport{Strategy: StratShuffle}, nil)
		op := r.shuffleTablesOp(c, l, j.LCol, rt, j.RCol)
		return r.instrument(c, "join[shuffle]("+pair+")", op, fill), nil

	case StratHyper:
		hy, op := r.hyperOp(p, l, j.LCol, rt, j.RCol)
		fill := r.reportJoin(c, JoinReport{Strategy: StratHyper}, hy)
		return r.instrument(c, "join[hyper]("+pair+")", op, fill), nil

	case StratCombination:
		// A⋈B = hyper(A1⋈B1) ∪ shuffle(A2⋈B) ∪ shuffle(A1⋈B2) — disjoint
		// and complete; the parts stream one after another through Concat.
		hy, hyOp := r.hyperOp(p, l, j.LCol, rt, j.RCol)
		parts := []exec.Operator{r.instrument(c, "join[hyper-part]("+pair+")", hyOp, nil)}
		if len(p.l2) > 0 {
			// shuffle(A2 ⋈ B): A2's residual rows against all of B again.
			lOp := r.instrument(c, "scan("+l.Table.Name+":residual)", r.Ex.ScanOp(p.l2, l.Preds), nil)
			rOp := r.instrument(c, "scan("+rt.Table.Name+")", r.scanOp(rt), nil)
			parts = append(parts, r.shuffleRowsOp(lOp, j.LCol, refRows(p.l2), rOp, j.RCol, refRows(p.r1)+refRows(p.r2)))
		}
		if len(p.r2) > 0 {
			// shuffle(A1 ⋈ B2): re-read A1 against B2's residual rows.
			lOp := r.instrument(c, "scan("+l.Table.Name+":copart)", r.Ex.ScanOp(p.l1, l.Preds), nil)
			rOp := r.instrument(c, "scan("+rt.Table.Name+":residual)", r.Ex.ScanOp(p.r2, rt.Preds), nil)
			parts = append(parts, r.shuffleRowsOp(lOp, j.LCol, refRows(p.l1), rOp, j.RCol, refRows(p.r2)))
		}
		fill := r.reportJoin(c, JoinReport{Strategy: StratCombination}, hy)
		return r.instrument(c, "join[combination]("+pair+")", exec.Concat(parts...), fill), nil
	}
	return nil, fmt.Errorf("planner: unknown strategy %q", p.strategy)
}

// hyperOp builds the streaming hyper-join for a decided plan, building
// on the left refs or (when the decision flipped the build side onto
// the smaller co-partitioned portion) on the right refs with a SwapSides
// wrapper restoring the plan's (left, right) column order.
func (r *Runner) hyperOp(p tableJoinPlan, l *Scan, lCol int, rt *Scan, rCol int) (*exec.HyperJoinOp, exec.Operator) {
	if !p.flip {
		h := r.Ex.NewHyperJoinOp(p.l1, l.Preds, lCol, p.r1, rt.Preds, rCol, r.budget())
		return h, h
	}
	h := r.Ex.NewHyperJoinOp(p.r1, rt.Preds, rCol, p.l1, l.Preds, lCol, r.budget())
	return h, exec.SwapSides(h, l.Table.Schema.NumCols())
}

// shuffleTablesOp is the operator form of a plain table shuffle join:
// both sides scan with pushdown, the smaller (by zone-map row counts)
// builds, and every row is charged the CSJ shuffle factor.
func (r *Runner) shuffleTablesOp(c *Compiled, l *Scan, lCol int, rt *Scan, rCol int) exec.Operator {
	lOp := r.instrument(c, "scan("+l.Table.Name+")", r.scanOp(l), nil)
	rOp := r.instrument(c, "scan("+rt.Table.Name+")", r.scanOp(rt), nil)
	return r.shuffleRowsOp(lOp, lCol, refRows(r.scanRefs(l)), rOp, rCol, refRows(r.scanRefs(rt)))
}

// shuffleRowsOp joins two streams with full shuffle charges on both
// sides, building on whichever side the cardinality estimates say is
// smaller while preserving (left, right) output order.
func (r *Runner) shuffleRowsOp(lOp exec.Operator, lCol, lRows int, rOp exec.Operator, rCol, rRows int) exec.Operator {
	opts := exec.JoinOptions{BuildCharge: exec.ChargeShuffle, ProbeCharge: exec.ChargeShuffle}
	build, probe := lOp, rOp
	bCol, pCol := lCol, rCol
	bRows := lRows
	if rRows < lRows {
		build, probe = rOp, lOp
		bCol, pCol = rCol, lCol
		opts.BuildIsRight = true
		bRows = rRows
	}
	opts.BuildRowsEst = r.estBuildRows(bRows)
	return r.Ex.JoinOp(build, bCol, probe, pCol, opts)
}

// scanRefs resolves the blocks a scan node reads under the executor's
// pruning mode (exec.Executor.TableRefs, memoized) — what scanOp scans
// and the cardinality basis for build-side selection.
func (r *Runner) scanRefs(s *Scan) []core.BlockRef {
	return r.allRefs(s.Table, r.Ex.PrunePreds(s.Preds))
}

// scanOp is the operator form of scanRefs.
func (r *Runner) scanOp(s *Scan) exec.Operator {
	return r.Ex.ScanOp(r.scanRefs(s), s.Preds)
}

// refKey names one ref resolution of a compile: a table, a tree (-1 for
// every live tree) and a predicate list by identity. The Scans of one
// compile share their table's bound predicate slice, and nothing
// mutates a predicate list or a layout while a compile runs.
type refKey struct {
	tbl   *core.Table
	tree  int
	preds *predicate.Predicate
	n     int
}

// memoRefs scopes ref memoization to one compile: every entry point
// that resolves refs calls it, nested calls share the outermost scope,
// and the returned func ends it. Layouts may change between compiles
// (adaptation runs before each query), so nothing outlives the scope.
func (r *Runner) memoRefs() (end func()) {
	if r.refMemo != nil {
		return func() {}
	}
	r.refMemo = make(map[refKey][]core.BlockRef)
	return func() { r.refMemo = nil }
}

// treeRefs is core.Table.Refs, memoized for the current compile. The
// result is capacity-capped, so a caller's append copies instead of
// writing into the shared array.
func (r *Runner) treeRefs(tbl *core.Table, tree int, preds []predicate.Predicate) []core.BlockRef {
	return r.memoized(refKey{tbl: tbl, tree: tree}, preds, func() []core.BlockRef {
		return tbl.Refs(tree, preds)
	})
}

// allRefs is core.Table.AllRefs, memoized for the current compile and
// assembled from the per-tree resolutions.
func (r *Runner) allRefs(tbl *core.Table, preds []predicate.Predicate) []core.BlockRef {
	return r.memoized(refKey{tbl: tbl, tree: -1}, preds, func() []core.BlockRef {
		live := tbl.LiveTrees()
		if len(live) == 1 {
			return r.treeRefs(tbl, live[0], preds)
		}
		var out []core.BlockRef
		for _, i := range live {
			out = append(out, r.treeRefs(tbl, i, preds)...)
		}
		return out
	})
}

func (r *Runner) memoized(key refKey, preds []predicate.Predicate, resolve func() []core.BlockRef) []core.BlockRef {
	key.n = len(preds)
	if len(preds) > 0 {
		key.preds = &preds[0]
	}
	if out, ok := r.refMemo[key]; ok {
		return out
	}
	out := resolve()
	out = out[:len(out):len(out)]
	if r.refMemo != nil {
		r.refMemo[key] = out
	}
	return out
}

// estimateRows guesses a sub-plan's output cardinality from zone-map
// metadata alone: a scan contributes its pruned block row counts, and
// a join's output is approximated by its larger input — the fact-side
// magnitude of a key/foreign-key join, the common case in the
// evaluated plans. It only steers build-side selection, never
// correctness.
func (r *Runner) estimateRows(n Node) int {
	switch nd := n.(type) {
	case *Scan:
		return refRows(r.scanRefs(nd))
	case *Join:
		l, rt := r.estimateRows(nd.Left), r.estimateRows(nd.Right)
		if l > rt {
			return l
		}
		return rt
	default:
		return 0
	}
}

// EstimateFootprint prices a plan's peak operator memory from zone-map
// metadata alone: every hash join holds its smaller input resident
// (the build table), so the footprint sums min(left, right) estimated
// rows × estRowBytes over the plan's joins. Admission control reserves
// this many bytes from the shared budget before the query runs; like
// every planner estimate it steers resource decisions, never
// correctness — an underestimate makes the join spill inside its
// share, an overestimate queues a query that would have fit.
func (r *Runner) EstimateFootprint(n Node) int64 {
	defer r.memoRefs()()
	nd, ok := n.(*Join)
	if !ok {
		return 0
	}
	l, rt := r.estimateRows(nd.Left), r.estimateRows(nd.Right)
	build := l
	if rt < l {
		build = rt
	}
	return int64(build)*estRowBytes + r.EstimateFootprint(nd.Left) + r.EstimateFootprint(nd.Right)
}
