// The plan→Operator compiler: turns a plan tree of arbitrary depth into
// one executable DAG of exec.Operators, with the optimizer-selected
// join strategies (hyper / shuffle / combination / semi-shuffle) chosen
// per join at compile time from block metadata alone — no slice
// materialization anywhere on the path. This file holds the entry
// point, the compiled-DAG type and the per-compile ref memo; the
// lowering itself is in distributed.go. Sessions (internal/session)
// drain the DAG batch by batch; exec.Collect materializes it.
package planner

import (
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
	// hypers are the DAG's hyper-joins, one per hyper or combination
	// join in Report order, each as its node fragments.
	hypers [][]*exec.HyperJoinOp
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

// Compile lowers a plan tree into a pipelined operator DAG over the
// executor's fabric (exec.Executor.ExecFabric): per-node fragments
// wired with exchanges (distributed.go), gathered into one root
// stream — the only operator that runs at the coordinator. A centralized executor is a one-node fabric, so the same
// lowering serves it. Join strategies are decided per join with the
// §5.4 cost comparison over block zone maps; every operator is
// instrumented, and the returned Compiled's Report lists one entry per
// join in plan post-order, complete once the DAG is drained. The
// caller owns the lifecycle of Root (Open/Next/Close, or exec.Collect
// / exec.Count).
func (r *Runner) Compile(n Node) (*Compiled, error) {
	defer r.memoRefs()()
	c := &Compiled{Report: &Report{}}
	parts, err := r.compileDist(n, c)
	if err != nil {
		return nil, err
	}
	c.Root = r.Ex.ExecFabric().Gather(parts)
	return c, nil
}

// instrument wraps op with stats collection and registers it with the
// compiled DAG.
func (r *Runner) instrument(c *Compiled, label string, op exec.Operator, onDone func(exec.OpStats)) exec.Operator {
	in := exec.Instrument(label, op, onDone)
	c.ops = append(c.ops, in)
	return in
}

// hyperOps builds the streaming hyper-join for a decided plan, one
// fragment per node, each on its node's executor view running the
// node's groups (split once, HyperPlan.SplitByNode): together they run
// the schedule estimateHyper priced, building on the left refs or (when
// the decision flipped the build side onto the smaller co-partitioned
// portion) on the right refs, emitting each scan's columns in the
// plan's (left, right) order either way.
func (r *Runner) hyperOps(p tableJoinPlan, l, rt *Scan) []*exec.HyperJoinOp {
	b, pr := l, rt
	if p.flip {
		b, pr = rt, l
	}
	fb := r.Ex.ExecFabric()
	out := make([]*exec.HyperJoinOp, fb.N())
	for i, groups := range p.hyper.SplitByNode(fb.N()) {
		out[i] = fb.At(i).NewHyperFragment(p.hyper, groups, b.Preds, pr.Preds, b.Cols, pr.Cols, p.flip)
	}
	return out
}

// scanRefs resolves the blocks a scan node reads under the executor's
// pruning mode (exec.Executor.TableRefs, memoized) — what distScan
// scans and the cardinality basis for build-side selection.
func (r *Runner) scanRefs(s *Scan) []core.BlockRef {
	return r.allRefs(s.Table, r.Ex.PrunePreds(s.Preds))
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
