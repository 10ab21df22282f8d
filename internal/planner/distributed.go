// The plan lowering: Compile turns a plan into per-node fragments
// connected by exchange operators over the executor's exec.Fabric — the
// one-node fabric of a centralized executor, the simulated NodeSet, or
// the TCP fabric of internal/net. Per join it chooses between
//
//   - co-located hyper-join: both sides have trees on the join
//     attribute and the §5.4 comparison favors hyper — each node runs
//     the groups whose build blocks it holds and NO exchange exists, so
//     zero rows cross the simulated network (the co-partitioning win
//     the paper's Fig. 1 measures), and the output stays on the nodes
//     that computed it for the join above to read there (§4.3);
//   - shuffle: both sides are hash-exchanged on the join key, then
//     joined node-locally — eq. 1 charges every row, while the N-node
//     fabrics move only the probe rows each node's build-key filter
//     passes (the planner still prices every row: ROADMAP item 1);
//   - semi-shuffle/broadcast: one side (a pipelined intermediate) is
//     broadcast to every node while the base table is scanned in place,
//     never moving — §4.3's "only tempLO is shuffled" generalized to
//     physical node placement.
//
// Scans are split by block placement (dfs.Store primary replicas) so
// each node reads its own blocks, and emit the Scan's columns: a grouped
// spec's scans and hyper-joins emit only the columns it reads, so its
// exchanges carry only those. A join's strategy is decided on table
// columns (Scan.tableCol); its operators join on columns of the scans'
// output. Every exchange carries the eq. 1
// charge class of its plan edge: exec.ChargeShuffle for a base table
// that repartitions, exec.ChargeIntermediate for an intermediate,
// exec.ChargeNone for a table §4.3 reads in place; an intermediate that
// a join reads where it was computed takes an exec.Fabric.InPlace edge
// at the intermediate's class. The one-node fabric
// meters rows at that class; the N-node fabrics meter the rows and bytes
// that actually cross nodes (cluster.Meter.AddExchangeAt).
package planner

import (
	"fmt"
	"sync"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
)

// instrumentAt wraps a node fragment with stats collection tagged with
// its node, so session results expose per-node skew.
func (r *Runner) instrumentAt(c *Compiled, node int, label string, op exec.Operator, onDone func(exec.OpStats)) exec.Operator {
	in := exec.Instrument(fmt.Sprintf("%s@n%d", label, node), op, onDone).AtNode(node)
	c.ops = append(c.ops, in)
	return in
}

// joinFill accumulates one join's report entry from the completion
// hooks of its node fragments, which fire from concurrent drain
// goroutines, hence the lock.
type joinFill struct {
	mu  *sync.Mutex
	rep *Report
	idx int
}

// reportJoin appends a report entry for a join being compiled, records
// the hyper-join fragments it runs (none for a shuffle or semi-shuffle)
// and returns the entry's accumulator.
func (r *Runner) reportJoin(c *Compiled, strategy string, hypers []*exec.HyperJoinOp) joinFill {
	c.Report.Joins = append(c.Report.Joins, JoinReport{Strategy: strategy})
	if hypers != nil {
		c.hypers = append(c.hypers, hypers)
	}
	return joinFill{mu: new(sync.Mutex), rep: c.Report, idx: len(c.Report.Joins) - 1}
}

// of returns the completion hook of one node fragment of the join: it
// adds the fragment's output rows and, when hy is set, the probe reads
// of the hyper-join fragment it ran, whose stream has ended by then.
// CHyJ is recomputed from the summed probe reads, so the fragments
// report what one operator over the whole schedule reports.
func (f joinFill) of(hy *exec.HyperJoinOp) func(exec.OpStats) {
	return func(st exec.OpStats) {
		f.mu.Lock()
		defer f.mu.Unlock()
		jr := &f.rep.Joins[f.idx]
		jr.OutputRows += int(st.Rows)
		if hy == nil {
			return
		}
		hs := hy.Stats()
		jr.ProbeBlocks += hs.ProbeBlocks
		// A fragment that holds no group reports no S blocks.
		jr.SBlocks = max(jr.SBlocks, hs.SBlocks)
		if jr.SBlocks > 0 {
			jr.CHyJ = float64(jr.ProbeBlocks) / float64(jr.SBlocks)
		}
	}
}

// compileDist lowers a plan node for the node fabric: parts[i] is node
// i's fragment of the sub-plan's output. Every sub-plan stays on the
// nodes; only Compile's root gather reaches the coordinator.
func (r *Runner) compileDist(n Node, c *Compiled) ([]exec.Operator, error) {
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
				return nil, err
			}
			return r.distBroadcastJoin(c, build, r.estimateRows(nd.Left), nd.LCol, rScan, nd.RCol, false), nil
		case lIsScan:
			build, err := r.compileDist(nd.Right, c)
			if err != nil {
				return nil, err
			}
			return r.distBroadcastJoin(c, build, r.estimateRows(nd.Right), nd.RCol, lScan, nd.LCol, true), nil
		default:
			// Two intermediates: hash-exchange both across the nodes and
			// join node-locally.
			lOut, err := r.compileDist(nd.Left, c)
			if err != nil {
				return nil, err
			}
			rOut, err := r.compileDist(nd.Right, c)
			if err != nil {
				return nil, err
			}
			fill := r.reportJoin(c, StratShuffle, nil).of(nil)
			return r.distShuffleParts(c, fill, "intermediates",
				joinSide{lOut, nd.LCol, r.estimateRows(nd.Left), exec.ChargeIntermediate},
				joinSide{rOut, nd.RCol, r.estimateRows(nd.Right), exec.ChargeIntermediate}), nil
		}
	default:
		return nil, fmt.Errorf("planner: unknown node %T", n)
	}
}

// distScan splits a table scan by block placement: node i reads the
// blocks whose primary replica it holds, on its own worker pool.
func (r *Runner) distScan(c *Compiled, s *Scan) []exec.Operator {
	return r.distRefsScan(c, s.Table.Name, r.scanRefs(s), s)
}

// distTableJoin lowers a base-table ⋈ base-table join to the strategy
// planTableJoin picks from zone-map metadata, realized across nodes.
// The strategy is decided on the join's table columns; the operators
// join on its columns of the scans' output.
func (r *Runner) distTableJoin(j *Join, l, rt *Scan, c *Compiled) ([]exec.Operator, error) {
	p := r.cachedTableJoin(l, l.tableCol(j.LCol), rt, rt.tableCol(j.RCol))
	pair := l.Table.Name + "⋈" + rt.Table.Name
	switch p.strategy {
	case StratShuffle:
		fill := r.reportJoin(c, StratShuffle, nil).of(nil)
		return r.distShuffleParts(c, fill, pair,
			joinSide{r.distScan(c, l), j.LCol, refRows(r.scanRefs(l)), exec.ChargeShuffle},
			joinSide{r.distScan(c, rt), j.RCol, refRows(r.scanRefs(rt)), exec.ChargeShuffle}), nil

	case StratHyper:
		// Co-located: node i runs the groups whose build blocks it holds
		// (taskNode locality); nothing is exchanged, and each node's
		// output stays where it was computed.
		hy := r.hyperOps(p, l, rt)
		fill := r.reportJoin(c, StratHyper, hy)
		parts := make([]exec.Operator, len(hy))
		for i, h := range hy {
			parts[i] = r.instrumentAt(c, i, "join[hyper]("+pair+")", h, fill.of(h))
		}
		return parts, nil

	case StratCombination:
		// hyper(A1⋈B1) ∪ shuffle(A2⋈B) ∪ shuffle(A1⋈B2): node i
		// concatenates its hyper fragment with its outputs of the
		// residual shuffle joins.
		hy := r.hyperOps(p, l, rt)
		fill := r.reportJoin(c, StratCombination, hy)
		units := make([][]exec.Operator, len(hy))
		for i, h := range hy {
			units[i] = []exec.Operator{r.instrumentAt(c, i, "join[hyper-part]("+pair+")", h, nil)}
		}
		residual := func(ls, rs joinSide) {
			for i, op := range r.distShuffleParts(c, nil, pair, ls, rs) {
				units[i] = append(units[i], op)
			}
		}
		if len(p.l2) > 0 {
			residual(joinSide{r.distRefsScan(c, l.Table.Name+":residual", p.l2, l), j.LCol, refRows(p.l2), exec.ChargeShuffle},
				joinSide{r.distScan(c, rt), j.RCol, refRows(p.r1) + refRows(p.r2), exec.ChargeShuffle})
		}
		if len(p.r2) > 0 {
			residual(joinSide{r.distRefsScan(c, l.Table.Name+":copart", p.l1, l), j.LCol, refRows(p.l1), exec.ChargeShuffle},
				joinSide{r.distRefsScan(c, rt.Table.Name+":residual", p.r2, rt), j.RCol, refRows(p.r2), exec.ChargeShuffle})
		}
		parts := make([]exec.Operator, len(hy))
		for i, h := range hy {
			parts[i] = r.instrumentAt(c, i, "join[combination]("+pair+")", exec.Concat(units[i]...), fill.of(h))
		}
		return parts, nil
	}
	return nil, fmt.Errorf("planner: unknown strategy %q", p.strategy)
}

// distRefsScan splits a ref set of scan s (its pruned refs, or a
// combination join's co-partitioned or residual portion) across the
// nodes by placement; each part filters by s's predicates and emits
// s's columns.
func (r *Runner) distRefsScan(c *Compiled, label string, refs []core.BlockRef, s *Scan) []exec.Operator {
	fb := r.Ex.ExecFabric()
	byNode := fb.SplitRefs(refs)
	parts := make([]exec.Operator, fb.N())
	for i := range parts {
		parts[i] = r.instrumentAt(c, i, "scan("+label+")", fb.ScanAt(i, byNode[i], s.Preds, s.Cols), nil)
	}
	return parts
}

// joinSide is one input of a both-sides-exchanged join: the compiled
// sub-plan's node fragments, its join column, its estimated rows and
// the charge class of its exchange.
type joinSide struct {
	in     []exec.Operator
	col    int
	rows   int
	charge exec.Charge
}

// distShuffleParts wires a both-sides-exchanged join: each side's
// fragments feed a hash exchange on its join column (same-node
// deliveries stay off the network), and node i joins the two i-th
// outputs on its own pool. The side with fewer estimated rows builds.
// The probe side's exchange is filtered: it waits for each node's
// sealed build to publish its key filter and drops the rows that cannot
// match before they cross. fill (optional) accumulates output rows into
// the join's report entry.
func (r *Runner) distShuffleParts(c *Compiled, fill func(exec.OpStats), pair string, l, rt joinSide) []exec.Operator {
	fb := r.Ex.ExecFabric()
	build, probe := l, rt
	flip := rt.rows < l.rows
	if flip {
		build, probe = rt, l
	}
	bx := fb.Shuffle(build.in, build.col, build.charge)
	px := fb.Shuffle(probe.in, probe.col, probe.charge)
	px.FilterProbe()
	parts := make([]exec.Operator, fb.N())
	// A hash exchange deals the build roughly evenly, so each node's
	// join sizes its fan-out for a 1/N share.
	perNode := r.estBuildRows(build.rows / fb.N())
	for i := 0; i < fb.N(); i++ {
		op := fb.At(i).JoinOp(bx.Output(i), build.col, px.Output(i), probe.col,
			exec.JoinOptions{BuildIsRight: flip, BuildRowsEst: perNode})
		parts[i] = r.instrumentAt(c, i, "join[shuffle]("+pair+")", op, fill)
	}
	return parts
}

// distBroadcastJoin lowers an intermediate ⋈ base-table join (§4.3) —
// one side exchanged, the other in place. The one-side exchange is
// only available when the base table has a tree on the join attribute
// (and hyper-join is not force-disabled); otherwise the base table must
// repartition too, and the join compiles — and is reported and priced —
// as a full shuffle with both sides exchanged, the table at eq. 1's
// shuffle class and the intermediate at §4.3's. With a tree, the
// smaller side by estimate is the one that gets duplicated:
//
//   - small intermediate: every node broadcasts its fragment of it to
//     every node, and each node probes the base table where its blocks
//     live (the base table never moves — §4.3's semi-shuffle made
//     physical);
//   - large intermediate (a fact-side pipeline feeding a small
//     dimension): every node broadcasts its scan of the base table
//     instead, and each node joins its own fragment of the intermediate
//     where it was computed, so the big stream does not move at all.
//
// tblFirst reports that the base table is the plan's left child
// (controls output column order).
func (r *Runner) distBroadcastJoin(c *Compiled, build []exec.Operator, buildRows, buildCol int, sc *Scan, tblCol int, tblFirst bool) []exec.Operator {
	fb := r.Ex.ExecFabric()
	if r.ForceShuffle || sc.Table.TreeFor(sc.tableCol(tblCol)) < 0 {
		// No tree on the join attribute: both sides hash-exchange.
		fill := r.reportJoin(c, StratShuffle, nil).of(nil)
		tbl := joinSide{r.distScan(c, sc), tblCol, refRows(r.scanRefs(sc)), exec.ChargeShuffle}
		in := joinSide{build, buildCol, buildRows, exec.ChargeIntermediate}
		if tblFirst {
			return r.distShuffleParts(c, fill, sc.Table.Name+"⋈intermediate", tbl, in)
		}
		return r.distShuffleParts(c, fill, "intermediate⋈"+sc.Table.Name, in, tbl)
	}
	fill := r.reportJoin(c, StratSemiShuffle, nil).of(nil)
	label := "join[semi-shuffle](" + sc.Table.Name + ")"
	parts := make([]exec.Operator, fb.N())
	tblRows := refRows(r.scanRefs(sc))
	if buildRows <= tblRows {
		bx := fb.Broadcast(build, exec.ChargeIntermediate)
		probe := r.distScan(c, sc)
		// A broadcast build lands whole on every node — no 1/N share.
		est := r.estBuildRows(buildRows)
		for i := range parts {
			op := fb.At(i).JoinOp(bx.Output(i), buildCol, probe[i], tblCol,
				exec.JoinOptions{BuildIsRight: tblFirst, BuildRowsEst: est})
			parts[i] = r.instrumentAt(c, i, label, op, fill)
		}
		return parts
	}
	// Flip: the base table is the small side. §4.3 reads the table in
	// place, so only the intermediate is charged, on the edge it takes
	// into its node's join.
	tx := fb.Broadcast(r.distScan(c, sc), exec.ChargeNone)
	est := r.estBuildRows(tblRows)
	for i := range parts {
		op := fb.At(i).JoinOp(tx.Output(i), tblCol, fb.InPlace(build[i], exec.ChargeIntermediate), buildCol,
			exec.JoinOptions{BuildIsRight: !tblFirst, BuildRowsEst: est})
		parts[i] = r.instrumentAt(c, i, label, op, fill)
	}
	return parts
}
