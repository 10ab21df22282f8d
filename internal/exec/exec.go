// The Executor, the NestedLoopJoin test oracle, and the hyper-join
// planning and statistics shared with the optimizer. See doc.go for the
// package overview and pipeline.go for the batched engine.
package exec

import (
	"context"
	"sort"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/hyperjoin"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Executor runs query operators against one store/meter pair.
type Executor struct {
	Store *dfs.Store
	Meter *cluster.Meter
	// Workers bounds task parallelism; 0 means one worker per node.
	Workers int
	// NoPrune disables tree and zone-map pruning: scans read every live
	// block and filter row by row. The "Full Scan" baseline of §7.3 runs
	// this way.
	NoPrune bool
	// Mem is the executor's operator memory budget; nil means unlimited.
	// Only state that grows with the input charges it: hash-join build
	// tables (which demote partitions to disk run files under pressure,
	// the hybrid hash join of spill.go), second-pass loads and group-by.
	// Exchanges charge nothing; their channel capacity bounds what is in
	// flight. EnableNodes splits it into equal per-node shares.
	Mem *MemBudget
	// SpillDir is where budget-pressured joins place their run-file temp
	// directories ("" = the OS temp dir). Each join creates and removes
	// its own subdirectory.
	SpillDir string

	// fs intercepts run-file I/O inside the spill directory; nil means
	// the real filesystem. Package-internal so only white-box tests can
	// inject faults (spillfs.go); EnableNodes propagates it to the
	// per-node executor views.
	fs spillFS

	// pin, when pinned, forces every task of this executor to run at one
	// node — the per-node executor views a NodeSet hands out. Reads of
	// blocks without a local replica are then metered remote instead of
	// chasing the primary replica.
	pin    dfs.NodeID
	pinned bool
	// nodes is the simulated per-node execution fabric, nil for a
	// centralized executor (which compiles onto the one-node fabric).
	nodes *NodeSet
	// xfabric, when set, overrides nodes as the execution fabric the
	// plan compiler lowers onto (SetFabric/ExecFabric, fabric.go). The
	// TCP coordinator and workers install their per-query network fabric
	// here; nil falls back to the simulated NodeSet or one-node fabric.
	xfabric Fabric
	// ctx cancels in-flight operators at batch boundaries; nil means
	// non-cancellable. Set via ForQuery (query.go).
	ctx context.Context
}

// New builds an executor.
func New(store *dfs.Store, meter *cluster.Meter) *Executor {
	return &Executor{Store: store, Meter: meter}
}

// MemLimit reports the executor's memory budget in bytes, 0 when
// unlimited — the number the planner's spill cost term reads.
func (e *Executor) MemLimit() int64 { return e.Mem.Limit() }

func (e *Executor) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	n := e.Store.NumNodes()
	if n < 1 {
		n = 1
	}
	return n
}

// taskNode picks the execution node for a block's task: the pinned node
// for a NodeSet's per-node executor view, else the block's primary
// replica, mirroring Spark/HDFS locality scheduling (scans are ~100%
// local, Fig. 7's normal case).
func (e *Executor) taskNode(ref core.BlockRef) dfs.NodeID {
	if e.pinned {
		return e.pin
	}
	return ref.Node
}

// HyperPlan is the block-read schedule of a hyper-join over build (R)
// and probe (S) refs: the grouping of build-side blocks plus the
// probe-side reads (with multiplicity) it implies. The planner prices
// it before choosing a join strategy (§5.4) and hands the same plan to
// the HyperJoinOp that runs it.
type HyperPlan struct {
	R, S       []core.BlockRef
	RCol, SCol int
	V          []hyperjoin.BitVec
	Grouping   hyperjoin.Grouping
	// ProbeIdx lists probe-side ref indexes read across all groups, with
	// multiplicity.
	ProbeIdx []int
}

// PlanHyper computes overlap vectors from the refs' zone maps and groups
// the build side with the bottom-up heuristic.
func PlanHyper(rRefs []core.BlockRef, rCol int, sRefs []core.BlockRef, sCol int, budget int) HyperPlan {
	V := overlapVectors(rRefs, rCol, sRefs, sCol)
	grouping := hyperjoin.BottomUp(V, budget)
	var probeIdx []int
	for _, g := range grouping {
		for _, j := range hyperjoin.Union(V, g).Ones() {
			if j < len(sRefs) {
				probeIdx = append(probeIdx, j)
			}
		}
	}
	return HyperPlan{R: rRefs, S: sRefs, RCol: rCol, SCol: sCol,
		V: V, Grouping: grouping, ProbeIdx: probeIdx}
}

// SplitByNode splits the plan's groups among n nodes in one pass: a
// group goes to the node holding the primary replica of its first
// build block (mod n), where an unpinned executor runs it (taskNode).
// Each node's groups keep their order in the plan.
func (p HyperPlan) SplitByNode(n int) []hyperjoin.Grouping {
	out := make([]hyperjoin.Grouping, n)
	for _, g := range p.Grouping {
		i := int(p.R[g[0]].Node) % n
		out[i] = append(out[i], g)
	}
	return out
}

// overlapVectors is §4.1.1's overlap test over the refs' zone maps on
// the join columns: a typed loop when both sides' zones there are int
// class of one kind (every TPC-H join key), else the boxed reference
// hyperjoin.OverlapVectors.
func overlapVectors(rRefs []core.BlockRef, rCol int, sRefs []core.BlockRef, sCol int) []hyperjoin.BitVec {
	rKind, rLo, rHi, rOK := core.IntZones(rRefs, rCol)
	sKind, sLo, sHi, sOK := core.IntZones(sRefs, sCol)
	if rOK && sOK && rKind == sKind {
		return hyperjoin.OverlapInts(rLo, rHi, sLo, sHi)
	}
	rRanges := make([]predicate.Range, len(rRefs))
	for i, r := range rRefs {
		rRanges[i] = r.JoinRange(rCol)
	}
	sRanges := make([]predicate.Range, len(sRefs))
	for j, s := range sRefs {
		sRanges[j] = s.JoinRange(sCol)
	}
	return hyperjoin.OverlapVectors(rRanges, sRanges)
}

// HyperStats reports what a hyper-join did.
type HyperStats struct {
	Groups       int
	BuildBlocks  int
	ProbeBlocks  int // with multiplicity
	SBlocks      int // distinct S blocks needed
	CHyJ         float64
	GroupingCost int
}

// joinKeyEqual is SQL join-key equality: NULL never equals NULL (or
// anything else), otherwise value equality.
func joinKeyEqual(a, b value.Value) bool {
	return !a.IsNull() && !b.IsNull() && value.Equal(a, b)
}

// NestedLoopJoin is the single-node oracle used by integration tests to
// cross-check join strategies: no pruning, no metering, O(n·m).
func NestedLoopJoin(left, right []tuple.Tuple, lCol, rCol int) []tuple.Tuple {
	var out []tuple.Tuple
	for _, l := range left {
		for _, r := range right {
			if joinKeyEqual(l[lCol], r[rCol]) {
				out = append(out, tuple.Concat(l, r))
			}
		}
	}
	return out
}

// SortRows orders rows lexicographically by their binary encoding; tests
// use it to compare result multisets across strategies.
func SortRows(rows []tuple.Tuple) {
	type keyed struct {
		key string
		row tuple.Tuple
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{string(r.AppendBinary(nil)), r}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		rows[i] = ks[i].row
	}
}
