// Package amoeba implements Amoeba's adaptive repartitioning for
// selection predicates (§3.2): after each query, generate alternative
// partitioning trees by applying transformation rules to the current
// tree ("merge two existing blocks partitioned on A and repartition them
// on B"), estimate each alternative's benefit over the query window
// against its repartitioning cost, and apply the best one when the
// benefit wins.
//
// The transformation implemented is the paper's canonical rule at
// leaf-pair granularity: an internal node whose children are both leaves
// can swap its split attribute for a predicate attribute observed in the
// window, physically re-routing the two buckets' rows. Applied query
// after query, these local moves push frequently filtered attributes
// down into the tree exactly as Amoeba's bottom-up search does.
package amoeba

import (
	"fmt"
	"sort"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/predicate"
	"adaptdb/internal/sample"
	"adaptdb/internal/tree"
	"adaptdb/internal/value"
	"adaptdb/internal/workload"
)

// Adapter drives selection-based adaptation for one table.
type Adapter struct {
	// Window is the table's recent-query window.
	Window *workload.Window
	// RepartCostFactor weighs the cost of repartitioning one row against
	// scanning one row (read + write ≈ 3, like CSJ).
	RepartCostFactor float64
	// MaxMovesPerStep bounds how many transformations one query may
	// trigger, keeping per-query overhead smooth.
	MaxMovesPerStep int
}

// New returns an adapter with the defaults used in the experiments.
func New(w *workload.Window) *Adapter {
	return &Adapter{Window: w, RepartCostFactor: 3.0, MaxMovesPerStep: 2}
}

// candidate is one proposed leaf-pair transformation.
type candidate struct {
	node    *tree.Node
	attr    int
	cut     value.Value
	benefit float64
}

// Step considers transformations on the given tree of the table and
// applies up to MaxMovesPerStep of them. It returns the number applied.
// Join-attribute levels of two-phase trees are never touched: those
// belong to smooth repartitioning.
func (a *Adapter) Step(tbl *core.Table, treeIdx int, meter *cluster.Meter) (int, error) {
	if treeIdx < 0 || treeIdx >= len(tbl.Trees) || tbl.Trees[treeIdx] == nil {
		return 0, fmt.Errorf("amoeba: no tree %d on %s", treeIdx, tbl.Name)
	}
	if a.Window.Len() == 0 {
		return 0, nil
	}
	ti := tbl.Trees[treeIdx]
	applied := 0
	for applied < a.MaxMovesPerStep {
		cand := a.bestCandidate(tbl, ti)
		if cand == nil {
			break
		}
		if err := a.apply(tbl, treeIdx, cand, meter); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// bestCandidate scans leaf-pair nodes bottom-up and returns the highest
// net-benefit transformation, or nil when nothing beats its cost.
func (a *Adapter) bestCandidate(tbl *core.Table, ti *core.TreeInfo) *candidate {
	predCols := a.Window.PredColumns()
	if len(predCols) == 0 {
		return nil
	}
	// Candidates are tried in column order, so equal net benefits break
	// the same way in every process: replicas of a TCP cluster adapt side
	// by side and must reach the same tree.
	cols := make([]int, 0, len(predCols))
	for col := range predCols {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	queries := a.Window.Queries()
	var best *candidate
	ti.Tree.Walk(func(n *tree.Node) {
		if n.Leaf || !n.Left.Leaf || !n.Right.Leaf {
			return
		}
		lRows, lOK := ti.Count(n.Left.Bucket)
		rRows, rOK := ti.Count(n.Right.Bucket)
		if !lOK && !rOK {
			return // empty pair
		}
		rows := lRows + rRows
		if rows == 0 {
			return
		}
		curSaved := a.savedRows(queries, n.Attr, n.Cut, tbl, ti, n)
		for _, col := range cols {
			if col == n.Attr {
				continue
			}
			cut, ok := a.chooseCut(tbl, ti, n, col)
			if !ok {
				continue
			}
			candSaved := a.savedRows(queries, col, cut, tbl, ti, n)
			benefit := candSaved - curSaved
			cost := float64(rows) * a.RepartCostFactor / float64(a.Window.Cap())
			// Benefit accrues per window run; cost is one-time, amortized
			// over the window length.
			if benefit-cost > 0 {
				if best == nil || benefit-cost > best.benefit {
					best = &candidate{node: n, attr: col, cut: cut, benefit: benefit - cost}
				}
			}
		}
	})
	return best
}

// savedRows estimates how many rows per window run a split (attr, cut)
// at node n saves: for each window query, if the query's range on attr
// falls entirely on one side of the cut, half the node's rows are
// skipped.
func (a *Adapter) savedRows(queries []workload.Query, attr int, cut value.Value, tbl *core.Table, ti *core.TreeInfo, n *tree.Node) float64 {
	lRows, _ := ti.Count(n.Left.Bucket)
	rRows, _ := ti.Count(n.Right.Bucket)
	half := float64(lRows+rRows) / 2
	leftIv := predicate.Range{HasHi: true, Hi: cut}
	rightIv := predicate.Range{HasLo: true, Lo: cut, LoOpen: true}
	saved := 0.0
	for _, q := range queries {
		ranges := predicate.ColumnRanges(q.Preds)
		r, ok := ranges[attr]
		if !ok {
			continue
		}
		hitsLeft := r.Overlaps(leftIv)
		hitsRight := r.Overlaps(rightIv)
		if hitsLeft != hitsRight { // prunes exactly one side
			saved += half
		}
	}
	return saved
}

// chooseCut picks a cut for column col over the rows under node n: the
// median of the two buckets' sampled values. Returns false when the
// local data cannot be split on col.
func (a *Adapter) chooseCut(tbl *core.Table, ti *core.TreeInfo, n *tree.Node, col int) (value.Value, bool) {
	var vals []value.Value
	for _, leaf := range []*tree.Node{n.Left, n.Right} {
		if _, ok := ti.Count(leaf.Bucket); !ok {
			continue
		}
		blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(treeIndexOf(tbl, ti), leaf.Bucket), 0)
		if err != nil {
			continue
		}
		cols := blk.Cols()
		for i, n := 0, cols.FullLen(); i < n; i++ {
			vals = append(vals, cols.Value(col, i))
		}
	}
	if len(vals) < 2 {
		return value.Value{}, false
	}
	sorted := sample.SortValues(vals)
	med := sorted[(len(sorted)-1)/2]
	if value.Compare(med, sorted[len(sorted)-1]) == 0 {
		// Degenerate: median equals max; find a lower distinct value.
		for i := len(sorted) - 1; i >= 0; i-- {
			if value.Compare(sorted[i], med) < 0 {
				return sorted[i], true
			}
		}
		return value.Value{}, false
	}
	return med, true
}

func treeIndexOf(tbl *core.Table, ti *core.TreeInfo) int {
	for i, t := range tbl.Trees {
		if t == ti {
			return i
		}
	}
	return -1
}

// apply physically performs a transformation: reads the two buckets,
// swaps the node's split, re-routes the rows, rewrites both blocks and
// refreshes metadata. Reads and writes are metered like any
// repartitioning I/O.
func (a *Adapter) apply(tbl *core.Table, treeIdx int, c *candidate, meter *cluster.Meter) error {
	ti := tbl.Trees[treeIdx]
	lB, rB := c.node.Left.Bucket, c.node.Right.Bucket
	// Both source blocks are read and split before either path is
	// rewritten: rows go left or right of the new cut by a typed compare
	// and move by columnar gather, the left bucket's rows first.
	left := block.New(tbl.Schema)
	right := block.New(tbl.Schema)
	var lIdx, rIdx []int32
	for _, b := range []block.ID{lB, rB} {
		if _, ok := ti.Count(b); !ok {
			continue
		}
		blk, local, err := tbl.Store().GetBlock(tbl.BlockPath(treeIdx, b), 0)
		if err != nil {
			return err
		}
		if meter != nil {
			meter.AddScan(blk.Len(), local)
			meter.AddRepartWrite(blk.Len())
		}
		cols := blk.Cols()
		key := cols.Col(c.attr)
		lIdx, rIdx = lIdx[:0], rIdx[:0]
		for i, n := 0, cols.FullLen(); i < n; i++ {
			if key.CompareValue(i, c.cut) <= 0 {
				lIdx = append(lIdx, int32(i))
			} else {
				rIdx = append(rIdx, int32(i))
			}
		}
		left.AppendGather(cols, lIdx)
		right.AppendGather(cols, rIdx)
	}
	c.node.Attr = c.attr
	c.node.Cut = c.cut
	tbl.RewriteBucket(treeIdx, lB, left)
	tbl.RewriteBucket(treeIdx, rB, right)
	return nil
}
