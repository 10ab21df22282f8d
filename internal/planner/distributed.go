// The distributed plan→Operator compiler: when the executor has an
// execution fabric (a simulated NodeSet or the TCP fabric of
// internal/net — exec.Fabric abstracts both), Compile lowers the plan
// into per-node fragments connected by exchange operators instead of
// one centralized DAG. Per join it
// chooses between
//
//   - co-located hyper-join: both sides have trees on the join
//     attribute and the §5.4 comparison favors hyper — groups run at
//     the nodes holding their build blocks and NO exchange exists, so
//     zero rows cross the simulated network (the co-partitioning win
//     the paper's Fig. 1 measures);
//   - shuffle: both sides are hash-exchanged on the join key, then
//     joined node-locally — every row moves, as eq. 1 charges;
//   - semi-shuffle/broadcast: one side (a pipelined intermediate) is
//     broadcast to every node while the base table is scanned in place,
//     never moving — §4.3's "only tempLO is shuffled" generalized to
//     physical node placement.
//
// Scans are split by block placement (dfs.Store primary replicas) so
// each node reads its own blocks; exchanges meter the rows and bytes
// that actually cross nodes (cluster.Meter.AddExchange) instead of the
// old call-site charges.
package planner

import (
	"fmt"
	"sync"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
)

// distOut is a compiled sub-plan in the distributed regime: either
// partitioned (parts[i] is node i's fragment) or a single coordinator
// stream (a hyper-join or combination output).
type distOut struct {
	parts  []exec.Operator
	global exec.Operator
}

// toGlobal merges a partitioned sub-plan into one coordinator stream,
// driving every node fragment concurrently. The fabric supplies the
// gather: in-process for the simulated NodeSet, frame streams back to
// the coordinator for the TCP fabric.
func (d distOut) toGlobal(fb exec.Fabric) exec.Operator {
	if d.global != nil {
		return d.global
	}
	return fb.Gather(d.parts)
}

// instrumentAt wraps a node fragment with stats collection tagged with
// its node, so session results expose per-node skew.
func (r *Runner) instrumentAt(c *Compiled, node int, label string, op exec.Operator, onDone func(exec.OpStats)) exec.Operator {
	in := exec.Instrument(fmt.Sprintf("%s@n%d", label, node), op, onDone).AtNode(node)
	c.ops = append(c.ops, in)
	return in
}

// reportJoinAccum appends a report entry for a join whose execution is
// spread across node fragments: each fragment's completion hook adds
// its share of the output rows (and, when a hyper part exists, its
// statistics). Hooks fire from concurrent drain goroutines, hence the
// lock.
func (r *Runner) reportJoinAccum(c *Compiled, jr JoinReport, hyper *exec.HyperJoinOp) func(exec.OpStats) {
	idx := len(c.Report.Joins)
	c.Report.Joins = append(c.Report.Joins, jr)
	rep := c.Report
	var mu sync.Mutex
	return func(st exec.OpStats) {
		mu.Lock()
		defer mu.Unlock()
		rep.Joins[idx].OutputRows += int(st.Rows)
		if hyper != nil {
			hs := hyper.Stats()
			rep.Joins[idx].CHyJ = hs.CHyJ
			rep.Joins[idx].ProbeBlocks = hs.ProbeBlocks
		}
	}
}

// compileDist lowers a plan node for the node fabric.
func (r *Runner) compileDist(n Node, c *Compiled) (distOut, error) {
	switch nd := n.(type) {
	case *Scan:
		return r.distScan(c, nd), nil
	case *Join:
		lScan, lIsScan := nd.Left.(*Scan)
		rScan, rIsScan := nd.Right.(*Scan)
		switch {
		case lIsScan && rIsScan:
			return r.distTableJoin(nd, lScan, rScan, c)
		case rIsScan:
			build, err := r.compileDist(nd.Left, c)
			if err != nil {
				return distOut{}, err
			}
			return r.distBroadcastJoin(c, build, r.estimateRows(nd.Left), nd.LCol, rScan, nd.RCol, false), nil
		case lIsScan:
			build, err := r.compileDist(nd.Right, c)
			if err != nil {
				return distOut{}, err
			}
			return r.distBroadcastJoin(c, build, r.estimateRows(nd.Right), nd.RCol, lScan, nd.LCol, true), nil
		default:
			// Two intermediates: hash-exchange both across the nodes and
			// join node-locally.
			lOut, err := r.compileDist(nd.Left, c)
			if err != nil {
				return distOut{}, err
			}
			rOut, err := r.compileDist(nd.Right, c)
			if err != nil {
				return distOut{}, err
			}
			fill := r.reportJoinAccum(c, JoinReport{Strategy: StratShuffle}, nil)
			return distOut{parts: r.distShuffleParts(c, fill, "intermediates",
				lOut, nd.LCol, r.estimateRows(nd.Left),
				rOut, nd.RCol, r.estimateRows(nd.Right))}, nil
		}
	default:
		return distOut{}, fmt.Errorf("planner: unknown node %T", n)
	}
}

// exchangeOf hash-partitions a sub-plan across the nodes: partitioned
// inputs keep their home nodes (same-node deliveries stay off the
// network), coordinator streams are all-remote.
func (r *Runner) exchangeOf(fb exec.Fabric, d distOut, key int) exec.Exchanger {
	if d.global != nil {
		return fb.ShuffleGlobal(d.global, key)
	}
	return fb.Shuffle(d.parts, key)
}

// distScan splits a table scan by block placement: node i reads the
// blocks whose primary replica it holds, on its own worker pool.
func (r *Runner) distScan(c *Compiled, s *Scan) distOut {
	return r.distRefsScan(c, s.Table.Name, r.scanRefs(s), s.Preds)
}

// distTableJoin lowers a base-table ⋈ base-table join to the strategy
// planTableJoin picks from zone-map metadata, realized across nodes.
func (r *Runner) distTableJoin(j *Join, l, rt *Scan, c *Compiled) (distOut, error) {
	p := r.cachedTableJoin(l, j.LCol, rt, j.RCol)
	pair := l.Table.Name + "⋈" + rt.Table.Name
	switch p.strategy {
	case StratShuffle:
		fill := r.reportJoinAccum(c, JoinReport{Strategy: StratShuffle}, nil)
		return distOut{parts: r.distShuffleParts(c, fill, pair,
			r.distScan(c, l), j.LCol, refRows(r.scanRefs(l)),
			r.distScan(c, rt), j.RCol, refRows(r.scanRefs(rt)))}, nil

	case StratHyper:
		// Co-located: hyper-join groups already run at the nodes holding
		// their build blocks (taskNode locality); nothing is exchanged.
		hy := r.hyperOp(p, l, j.LCol, rt, j.RCol)
		fill := r.reportJoin(c, JoinReport{Strategy: StratHyper}, hy)
		return distOut{global: r.instrument(c, "join[hyper]("+pair+")", hy, fill)}, nil

	case StratCombination:
		// hyper(A1⋈B1) ∪ shuffle(A2⋈B) ∪ shuffle(A1⋈B2), the hyper part
		// co-located and the residual parts exchanged.
		hy := r.hyperOp(p, l, j.LCol, rt, j.RCol)
		fill := r.reportJoinAccum(c, JoinReport{Strategy: StratCombination}, hy)
		fb := r.Ex.ExecFabric()
		parts := []exec.Operator{r.instrument(c, "join[hyper-part]("+pair+")", hy, nil)}
		if len(p.l2) > 0 {
			lsc := r.distRefsScan(c, l.Table.Name+":residual", p.l2, l.Preds)
			rsc := r.distScan(c, rt)
			parts = append(parts, fb.Gather(r.distShuffleParts(c, nil, pair,
				lsc, j.LCol, refRows(p.l2), rsc, j.RCol, refRows(p.r1)+refRows(p.r2))))
		}
		if len(p.r2) > 0 {
			lsc := r.distRefsScan(c, l.Table.Name+":copart", p.l1, l.Preds)
			rsc := r.distRefsScan(c, rt.Table.Name+":residual", p.r2, rt.Preds)
			parts = append(parts, fb.Gather(r.distShuffleParts(c, nil, pair,
				lsc, j.LCol, refRows(p.l1), rsc, j.RCol, refRows(p.r2))))
		}
		op := r.instrument(c, "join[combination]("+pair+")", exec.Concat(parts...), fill)
		return distOut{global: op}, nil
	}
	return distOut{}, fmt.Errorf("planner: unknown strategy %q", p.strategy)
}

// distRefsScan splits an explicit ref set (a combination join's
// co-partitioned or residual portion) across the nodes by placement.
func (r *Runner) distRefsScan(c *Compiled, label string, refs []core.BlockRef, preds []predicate.Predicate) distOut {
	fb := r.Ex.ExecFabric()
	byNode := fb.SplitRefs(refs)
	parts := make([]exec.Operator, fb.N())
	for i := range parts {
		parts[i] = r.instrumentAt(c, i, "scan("+label+")", fb.ScanAt(i, byNode[i], preds), nil)
	}
	return distOut{parts: parts}
}

// distShuffleParts wires a both-sides-exchanged join: each side's
// fragments feed a hash exchange on its join column, and node i joins
// the two i-th outputs on its own pool. fill (optional) accumulates
// output rows into the join's report entry.
func (r *Runner) distShuffleParts(c *Compiled, fill func(exec.OpStats), pair string,
	l distOut, lCol, lRows int, rt distOut, rCol, rRows int) []exec.Operator {
	fb := r.Ex.ExecFabric()
	build, probe := l, rt
	bCol, pCol := lCol, rCol
	bRows := lRows
	flip := rRows < lRows
	if flip {
		build, probe = rt, l
		bCol, pCol = rCol, lCol
		bRows = rRows
	}
	bx := r.exchangeOf(fb, build, bCol)
	px := r.exchangeOf(fb, probe, pCol)
	parts := make([]exec.Operator, fb.N())
	// A hash exchange deals the build roughly evenly, so each node's
	// join sizes its fan-out for a 1/N share.
	perNode := r.estBuildRows(bRows / fb.N())
	for i := 0; i < fb.N(); i++ {
		op := fb.At(i).JoinOp(bx.Output(i), bCol, px.Output(i), pCol,
			exec.JoinOptions{BuildIsRight: flip, BuildRowsEst: perNode})
		parts[i] = r.instrumentAt(c, i, "join[shuffle]("+pair+")", op, fill)
	}
	return parts
}

// distBroadcastJoin lowers an intermediate ⋈ base-table join — one side
// exchanged, the other (mostly) in place. Like the centralized
// compileSemiShuffle, the one-side exchange is only available when the
// base table has a tree on the join attribute (and hyper-join is not
// force-disabled); otherwise the base table must repartition too, and
// the join compiles — and is reported and priced — as a full shuffle
// with both sides exchanged. With a tree, the smaller side by estimate
// is the one that gets duplicated:
//
//   - small intermediate: broadcast it to every node and probe the base
//     table where its blocks live (the base table never moves — §4.3's
//     semi-shuffle made physical);
//   - large intermediate (a fact-side pipeline feeding a small
//     dimension): broadcast the base table instead and deal the
//     intermediate round-robin across the nodes, so the big stream
//     crosses the network once instead of N times.
//
// tblFirst reports that the base table is the plan's left child
// (controls output column order).
func (r *Runner) distBroadcastJoin(c *Compiled, build distOut, buildRows, buildCol int, sc *Scan, tblCol int, tblFirst bool) distOut {
	fb := r.Ex.ExecFabric()
	if r.ForceShuffle || sc.Table.TreeFor(tblCol) < 0 {
		// No tree on the join attribute: both sides hash-exchange.
		fill := r.reportJoinAccum(c, JoinReport{Strategy: StratShuffle}, nil)
		tbl := r.distScan(c, sc)
		tblRows := refRows(r.scanRefs(sc))
		if tblFirst {
			return distOut{parts: r.distShuffleParts(c, fill, sc.Table.Name+"⋈intermediate",
				tbl, tblCol, tblRows, build, buildCol, buildRows)}
		}
		return distOut{parts: r.distShuffleParts(c, fill, "intermediate⋈"+sc.Table.Name,
			build, buildCol, buildRows, tbl, tblCol, tblRows)}
	}
	fill := r.reportJoinAccum(c, JoinReport{Strategy: StratSemiShuffle}, nil)
	parts := make([]exec.Operator, fb.N())
	tblRows := refRows(r.scanRefs(sc))
	if buildRows <= tblRows {
		bx := fb.Broadcast(build.toGlobal(fb))
		probe := r.distScan(c, sc)
		// A broadcast build lands whole on every node — no 1/N share.
		est := r.estBuildRows(buildRows)
		for i := 0; i < fb.N(); i++ {
			op := fb.At(i).JoinOp(bx.Output(i), buildCol, probe.parts[i], tblCol,
				exec.JoinOptions{BuildIsRight: tblFirst, BuildRowsEst: est})
			parts[i] = r.instrumentAt(c, i, "join[semi-shuffle]("+sc.Table.Name+")", op, fill)
		}
		return distOut{parts: parts}
	}
	// Flip: the base table is the small side. Broadcast its (gathered)
	// per-node scans and deal the intermediate across the nodes.
	tx := fb.Broadcast(r.distScan(c, sc).toGlobal(fb))
	px := fb.Deal(build.toGlobal(fb))
	est := r.estBuildRows(tblRows)
	for i := 0; i < fb.N(); i++ {
		op := fb.At(i).JoinOp(tx.Output(i), tblCol, px.Output(i), buildCol,
			exec.JoinOptions{BuildIsRight: !tblFirst, BuildRowsEst: est})
		parts[i] = r.instrumentAt(c, i, "join[semi-shuffle]("+sc.Table.Name+")", op, fill)
	}
	return distOut{parts: parts}
}
