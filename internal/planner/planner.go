package planner

import (
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
)

// Node is a query-plan node: either Scan or Join.
type Node interface{ nodeMark }

// nodeMark seals Node to this package's plan types: Scan and Join
// embed it, which puts its marker method node in their method sets. The
// field is always nil, and the method has no body for a binary to link;
// nothing calls it.
type nodeMark interface{ node() }

// Scan reads one table with predicate pushdown. Cols lists the table
// columns it emits, strictly increasing; nil emits every column. A
// grouped spec's lowering narrows its scans this way (keptCols).
type Scan struct {
	nodeMark
	Table *core.Table
	Preds []predicate.Predicate
	Cols  []int
}

// width is the scan's output column count.
func (s *Scan) width() int {
	if s.Cols == nil {
		return s.Table.Schema.NumCols()
	}
	return len(s.Cols)
}

// tableCol maps column i of the scan's output to its table column —
// what zone maps, trees and hyper-join plans are indexed by.
func (s *Scan) tableCol(i int) int {
	if s.Cols == nil {
		return i
	}
	return s.Cols[i]
}

// Join joins two sub-plans on the given column indexes of their output
// rows (left columns first in the output).
type Join struct {
	nodeMark
	Left, Right Node
	LCol, RCol  int
}

// Uses derives a plan's optimizer votes (§5.2): one TableUse per Scan
// leaf, left to right, carrying the Scan's predicates. A table votes
// the column read by the first join that reads it, children visited
// before parents and left before right; -1 if no join reads it.
func Uses(n Node) []optimizer.TableUse {
	var uses []optimizer.TableUse
	var scans []*Scan
	// vote charges col of the output starting at leaf first to the leaf
	// that owns it.
	vote := func(first, col int) {
		i := first
		for col >= scans[i].width() {
			col -= scans[i].width()
			i++
		}
		if uses[i].JoinAttr < 0 {
			uses[i].JoinAttr = scans[i].tableCol(col)
		}
	}
	// visit appends n's leaves and returns the index of its first one.
	var visit func(n Node) int
	visit = func(n Node) int {
		switch n := n.(type) {
		case *Scan:
			uses = append(uses, optimizer.TableUse{Table: n.Table, JoinAttr: -1, Preds: n.Preds})
			scans = append(scans, n)
			return len(uses) - 1
		case *Join:
			l, r := visit(n.Left), visit(n.Right)
			vote(l, n.LCol)
			vote(r, n.RCol)
			return l
		}
		panic("planner: unknown plan node")
	}
	visit(n)
	return uses
}

// Strategy names used in reports.
const (
	StratHyper       = "hyper"
	StratShuffle     = "shuffle"
	StratCombination = "combination"
	StratSemiShuffle = "semi-shuffle"
)

// JoinReport describes how one join in the plan was executed.
type JoinReport struct {
	Strategy    string
	CHyJ        float64
	ProbeBlocks int
	// SBlocks is the distinct S blocks a hyper or combination join's
	// schedule needs (0 for the other strategies): CHyJ is ProbeBlocks
	// over SBlocks.
	SBlocks    int
	OutputRows int
}

// Report aggregates the per-join reports for a plan run.
type Report struct {
	Joins []JoinReport
}

// Add folds in o, another process's report of the same compiled plan,
// which ran other fragments of it: output rows and probe reads sum, and
// CHyJ is recomputed from the summed reads, as the fragments of one
// process report it. The strategies must already be equal.
func (r *Report) Add(o *Report) {
	for i, oj := range o.Joins {
		j := &r.Joins[i]
		j.OutputRows += oj.OutputRows
		j.ProbeBlocks += oj.ProbeBlocks
		j.SBlocks = max(j.SBlocks, oj.SBlocks)
		if j.SBlocks > 0 {
			j.CHyJ = float64(j.ProbeBlocks) / float64(j.SBlocks)
		}
	}
}

// Runner compiles and executes plans against one executor.
type Runner struct {
	Ex    *exec.Executor
	Model cluster.CostModel
	// BudgetBlocks is the hyper-join memory budget in blocks (Fig. 14
	// sweeps it; default 4).
	BudgetBlocks int
	// ForceShuffle disables hyper-join entirely (the "AdaptDB w/ Shuffle
	// Join" and baseline configurations).
	ForceShuffle bool
	// FixedOrder disables greedy join ordering for specs: the left-deep
	// tree follows table declaration order instead of zone-map
	// cardinalities. The baseline the ordering benchmarks compare
	// against; correctness is unaffected.
	FixedOrder bool
	// EstScale multiplies every build-side cardinality estimate handed
	// to the execution joins (JoinOptions.BuildRowsEst); 0 or 1 means
	// exact. Difftest injects 10x errors in both directions through it
	// to prove the dynamic fan-out degrades in speed only, never in
	// correctness. Strategy costing (estimateHyper etc.) is not scaled —
	// only what the joins size their radix fan-out with.
	EstScale float64
	// Cache memoizes per-join strategy decisions across compiles; nil
	// disables caching (every compile re-prices its joins). See
	// cache.go for the keying and invalidation contract.
	Cache *PlanCache
	// CacheHits/CacheMisses count this Runner's own cache lookups —
	// per-compile observability on top of the cache's global stats.
	// Runners are single-compile objects in the serving layer, so plain
	// ints suffice.
	CacheHits, CacheMisses int
	// LinkWeights are measured per-link cost weights (cluster/links.go,
	// derived from observed ns-per-byte on the TCP fabric). Their mean
	// scales the network share of the shuffle estimates — on a cluster
	// whose links run slower than the calibration assumed, shuffles get
	// proportionally more expensive relative to hyper-joins, tilting the
	// §5.4 comparison toward co-partitioning (Bala-Join's communication-
	// vs-computation pricing). Nil means unmeasured: weight 1, the flat
	// eq. 1 pricing, bit-identical to the pre-link behavior.
	LinkWeights cluster.LinkWeights

	// refMemo holds the ref sets resolved during the current compile
	// (memoRefs); nil outside one.
	refMemo map[refKey][]core.BlockRef
}

// netWeight is the scalar the shuffle estimates multiply their network
// share by — the mean measured link weight, 1 when unmeasured.
func (r *Runner) netWeight() float64 { return r.LinkWeights.Mean() }

// estBuildRows scales a build-side row estimate by the injected
// estimate error. 0 stays 0 (unknown); known estimates stay ≥ 1.
func (r *Runner) estBuildRows(rows int) int {
	if rows <= 0 {
		return 0
	}
	if r.EstScale > 0 && r.EstScale != 1 {
		rows = int(float64(rows) * r.EstScale)
		if rows < 1 {
			rows = 1
		}
	}
	return rows
}

// NewRunner builds a plan runner with the default budget.
func NewRunner(ex *exec.Executor, model cluster.CostModel) *Runner {
	return &Runner{Ex: ex, Model: model, BudgetBlocks: 4}
}

func (r *Runner) budget() int {
	if r.BudgetBlocks > 0 {
		return r.BudgetBlocks
	}
	return 4
}

// refRows sums the row counts of a ref set.
func refRows(refs []core.BlockRef) int {
	n := 0
	for _, ref := range refs {
		n += ref.Count
	}
	return n
}

// estimateHyper prices a hyper-join schedule: build rows once plus the
// planned probe rows from the bottom-up grouping (§5.4's "compute the
// schedule of blocks to read and count the total number of block
// reads"). It returns the schedule with its price, so the join that
// runs it never plans again; an empty side prices 0 with no groups.
func (r *Runner) estimateHyper(rRefs []core.BlockRef, rCol int, sRefs []core.BlockRef, sCol int) (float64, exec.HyperPlan) {
	if len(rRefs) == 0 || len(sRefs) == 0 {
		return 0, exec.HyperPlan{R: rRefs, S: sRefs, RCol: rCol, SCol: sCol}
	}
	plan := exec.PlanHyper(rRefs, rCol, sRefs, sCol, r.budget())
	build := float64(refRows(rRefs))
	probe := 0.0
	for _, gi := range plan.ProbeIdx {
		probe += float64(sRefs[gi].Count)
	}
	return build + probe, plan
}

// estimateShuffle prices a shuffle join of aRows ⋈ bRows rows (a plain
// shuffle or a combination plan's residual sub-join) with eq. 1: CSJ
// per row on both sides, plus the spill term when the executor carries
// a memory budget — a shuffle join materializes its smaller side into
// one hash table, and rows beyond the budget are demoted to disk run
// files (write + read-back, priced by SpillRowFactor). Hyper-join never
// pays this: its §4.1 grouping bounds every build to the block budget,
// which is exactly the trade the comparison should see under tight
// memory. Of the CSJ units per row, 1 is the initial read
// (compute/disk) and CSJ−1 the partition-write + re-read across the
// network — the share the measured link weights scale.
func (r *Runner) estimateShuffle(aRows, bRows int) float64 {
	build, probe := aRows, bRows
	if bRows < aRows {
		build, probe = bRows, aRows
	}
	csj := 1 + (r.Model.CSJ-1)*r.netWeight()
	return csj*float64(aRows+bRows) + r.spillEstimate(build, probe)
}

// estRowBytes approximates a row's in-memory footprint for spill
// estimation — value structs dominate, string payloads are noise at
// planning time. Only steers strategy choice, never correctness.
const estRowBytes = 64

// spillEstimate prices the disk I/O a hash build of buildRows rows
// would pay under the executor's memory budget: the fraction of the
// build that exceeds the budget spills, and the probe rows hashing to
// spilled partitions spill with it (the second-pass pairing of the
// hybrid hash join), each priced at SpillRowFactor per row. The probe
// term is discounted by BloomSkipFrac — the share of those probe rows
// the join's build-key filter is expected to drop before the run-file
// write; the build side always pays in full.
func (r *Runner) spillEstimate(buildRows, probeRows int) float64 {
	limit := r.Ex.MemLimit()
	if limit <= 0 || buildRows == 0 {
		return 0
	}
	bytes := int64(buildRows) * estRowBytes
	if bytes <= limit {
		return 0
	}
	frac := 1 - float64(limit)/float64(bytes)
	skip := r.Model.BloomSkipFrac
	if skip < 0 {
		skip = 0
	} else if skip > 1 {
		skip = 1
	}
	return r.Model.SpillRowFactor * frac * (float64(buildRows) + (1-skip)*float64(probeRows))
}

// tableJoinPlan is the compile-time strategy decision for one
// base-table ⋈ base-table join: which strategy won the §5.4 cost
// comparison, the co-partitioned (l1/r1) and residual (l2/r2) block
// refs of each side, whether the hyper-join builds on the right side
// (flip), and for a hyper or combination join the schedule its price
// came from, which the HyperJoinOp runs.
type tableJoinPlan struct {
	strategy       string
	flip           bool
	l1, l2, r1, r2 []core.BlockRef
	hyper          exec.HyperPlan
}

// planTableJoin decides a base-table join's strategy from block
// metadata alone — the three-case logic of §6 plus the §5.4 cost
// comparisons. It reads zone maps, never data blocks, so compilation
// stays O(metadata).
func (r *Runner) planTableJoin(l *Scan, lCol int, rt *Scan, rCol int) tableJoinPlan {
	lIdx := l.Table.TreeFor(lCol)
	rIdx := rt.Table.TreeFor(rCol)

	if r.ForceShuffle || lIdx < 0 || rIdx < 0 {
		// Case 3: no co-partitioning. Consider opportunistic hyper-join
		// over whatever trees exist (zone maps may still be tight).
		if !r.ForceShuffle {
			lRefs := r.allRefs(l.Table, l.Preds)
			rRefs := r.allRefs(rt.Table, rt.Preds)
			if hy, plan := r.estimateHyper(lRefs, lCol, rRefs, rCol); hy > 0 && hy < r.estimateShuffle(refRows(lRefs), refRows(rRefs)) {
				return tableJoinPlan{strategy: StratHyper, l1: lRefs, r1: rRefs, hyper: plan}
			}
		}
		return tableJoinPlan{strategy: StratShuffle}
	}

	// Split each side into the co-partitioned portion (the tree on the
	// join attribute) and the residual portion (all other live trees).
	p := tableJoinPlan{l1: r.treeRefs(l.Table, lIdx, l.Preds), r1: r.treeRefs(rt.Table, rIdx, rt.Preds)}
	for _, i := range l.Table.LiveTrees() {
		if i != lIdx {
			p.l2 = append(p.l2, r.treeRefs(l.Table, i, l.Preds)...)
		}
	}
	for _, i := range rt.Table.LiveTrees() {
		if i != rIdx {
			p.r2 = append(p.r2, r.treeRefs(rt.Table, i, rt.Preds)...)
		}
	}

	// Orient the hyper-join: build on the smaller co-partitioned side.
	p.flip = refRows(p.r1) < refRows(p.l1)
	var hyEst float64
	if p.flip {
		hyEst, p.hyper = r.estimateHyper(p.r1, rCol, p.l1, lCol)
	} else {
		hyEst, p.hyper = r.estimateHyper(p.l1, lCol, p.r1, rCol)
	}

	// Case 1: both tables fully co-partitioned. Cost-compare hyper vs
	// shuffle (§5.4) and pick the winner.
	if len(p.l2) == 0 && len(p.r2) == 0 {
		if hyEst >= r.estimateShuffle(refRows(p.l1), refRows(p.r1)) {
			return tableJoinPlan{strategy: StratShuffle}
		}
		p.strategy = StratHyper
		return p
	}

	// Case 2: combination join. A⋈B = hyper(A1⋈B1) ∪ shuffle(A2⋈B) ∪
	// shuffle(A1⋈B2) — disjoint, complete, and mostly-hyper once the
	// transition is nearly done. Early in a transition the residual
	// shuffles (which re-read the other side) can exceed a plain shuffle
	// join, so cost-compare first (§5.4).
	// Each residual sub-join is itself a budgeted hash build at runtime,
	// so it carries the same spill term as the plain-shuffle estimate —
	// pricing them CSJ-only would make combination look artificially
	// cheap exactly when memory is tight.
	combEst := hyEst
	if len(p.l2) > 0 {
		// shuffle(A2 ⋈ B): scan+shuffle A2's rows and all of B again.
		combEst += r.estimateShuffle(refRows(p.l2), refRows(p.r1)+refRows(p.r2))
	}
	if len(p.r2) > 0 {
		// shuffle(A1 ⋈ B2): re-scan+shuffle A1 and B2's residual rows.
		combEst += r.estimateShuffle(refRows(p.l1), refRows(p.r2))
	}
	if combEst >= r.estimateShuffle(refRows(p.l1)+refRows(p.l2), refRows(p.r1)+refRows(p.r2)) {
		return tableJoinPlan{strategy: StratShuffle}
	}
	p.strategy = StratCombination
	return p
}
