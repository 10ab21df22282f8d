// Spec lowering: the pass that turns a bound query.Spec — an n-way
// join graph with pushdown predicates and optional grouping — into the
// planner's internal Node IR and on into the operator DAG. The heart is
// a greedy zone-map-driven join ordering (cheapest-edge-first): with no
// statistics beyond block metadata, join the two cheapest tables first
// and repeatedly fold in the cheapest table adjacent to the joined set.
// Greedy ordering over pruned zone-map cardinalities is exactly the
// regime where simple beats clever — the estimates are coarse, but they
// are coarse for every ordering, and the greedy choice exploits the one
// signal that is reliable: predicate-pruned row counts.
//
// The ordering pass also proves emptiness early: if any table's pruned
// ref set is empty, or any join edge's zone-map unions on the two sides
// cannot overlap, the whole query provably yields nothing and compiles
// to a gather of empty fragments (a global aggregate still emits its
// one row).
//
// Join-graph edges beyond the ordered left-deep tree — cyclic closing
// edges, and the extra attribute pairs of multi-attribute edges —
// become residual equality filters (exec.WhereColsEq) over the joined
// stream. A projection then restores table declaration order when
// greedy ordering permuted the tables, so the ordering is invisible in
// the results: only the join strategies and intermediate sizes change.
// For a grouped spec it keeps only the columns the group-by reads. Both
// run on every node fragment, below the root gather, so the group-by
// above it reads column indexes that depend on the spec alone.
//
// A grouped spec is projected at its scans too, not only above the
// joins: each scan emits only its table's keptCols — the join keys of
// every edge touching the table and the group-by's inputs — so every
// join, exchange, spill run and wire frame below the final projection
// carries those columns alone. Join columns, residual pairs and the
// output projection index that narrowed stream (streamCols); strategy
// decisions, trees and hyper plans still read table columns
// (Scan.tableCol). A non-grouped spec returns whole rows, and its
// scans emit every column.
//
// Orderings are memoized in the PlanCache next to the per-join strategy
// decisions, keyed by the spec fingerprint plus each table's layout
// version and the runner knobs — the same invalidation contract as
// table-join plans.
package planner

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/value"
)

// specOrder is the memoized ordering decision for one bound spec: the
// table sequence of the left-deep join tree and, for each table after
// the first, the join-graph edge that connects it to the prefix. empty
// marks a query zone maps proved produces no rows.
type specOrder struct {
	empty bool
	seq   []int
	edges []int
}

// CompileSpec lowers a bound spec to an executable operator DAG:
// greedy (or, under FixedOrder, declaration-order) join ordering, scans
// narrowed to the columns a grouped spec reads, the existing per-join
// strategy machinery underneath, then on every node
// fragment the residual equality filters for graph edges the tree did
// not consume and the projection onto the spec's output columns, and
// above the one root gather only what Top builds. Everything whose
// column offsets follow the join order — which follows the zone maps —
// runs below the gather, so the operator above it is a pure function
// of the spec. A provably empty query compiles to a gather of empty
// fragments: every host still ends the root stream.
func (r *Runner) CompileSpec(b *query.Bound) (*Compiled, error) {
	defer r.memoRefs()()
	ord := r.cachedSpecOrder(b)
	c := &Compiled{Report: &Report{}}
	fb := r.Ex.ExecFabric()
	parts := make([]exec.Operator, fb.N())
	if ord.empty {
		for i := range parts {
			parts[i] = exec.Empty()
		}
	} else {
		node, sc := r.lowerSpec(b, ord)
		var err error
		if parts, err = r.compileDist(node, c); err != nil {
			return nil, err
		}
		pairs := residualPairs(b, ord, sc)
		cols := outColumns(b, sc)
		for i, op := range parts {
			if len(pairs) > 0 {
				op = r.instrumentAt(c, i, "residual-filter", exec.WhereColsEq(op, pairs), nil)
			}
			if cols != nil {
				op = r.instrumentAt(c, i, "project", exec.Project(op, cols), nil)
			}
			parts[i] = op
		}
	}
	c.Root = r.top(c, b, fb.Gather(parts))
	return c, nil
}

// Top builds what runs above a compiled spec's root gather, over
// gather: the group-by of a grouped spec, or gather itself. It reads
// the spec alone — no layout, no ordering — so a process that never
// compiles the plan (the TCP coordinator) roots the stream the workers'
// compiles feed exactly as CompileSpec does.
func (r *Runner) Top(b *query.Bound, gather exec.Operator) *Compiled {
	c := &Compiled{Report: &Report{}}
	c.Root = r.top(c, b, gather)
	return c
}

func (r *Runner) top(c *Compiled, b *query.Bound, gather exec.Operator) exec.Operator {
	if !b.Grouped() {
		return gather
	}
	return r.instrument(c, "groupby", r.Ex.GroupByOp(gather, groupSpec(b)), nil)
}

// EstimateSpecFootprint prices a spec's peak operator memory the same
// way EstimateFootprint prices a Node plan, over the ordering this
// runner would pick. Aggregation state is not priced — group counts are
// unknowable from zone maps; the budget charge at runtime is advisory.
func (r *Runner) EstimateSpecFootprint(b *query.Bound) int64 {
	defer r.memoRefs()()
	ord := r.cachedSpecOrder(b)
	if ord.empty {
		return 0
	}
	node, _ := r.lowerSpec(b, ord)
	return r.EstimateFootprint(node)
}

// streamCols places the tables of a lowered spec in its joined stream
// of width columns: table ti's scan emits its columns keep[ti] (nil:
// every column), and they start at index offs[ti].
type streamCols struct {
	offs  []int
	keep  [][]int
	width int
}

// local is table ti's column c as an index of ti's scan output.
func (s streamCols) local(ti, c int) int {
	if s.keep[ti] == nil {
		return c
	}
	return slices.Index(s.keep[ti], c)
}

// at is table ti's column c as an index of the joined stream.
func (s streamCols) at(ti, c int) int { return s.offs[ti] + s.local(ti, c) }

// lowerSpec builds the left-deep Node tree for a decided ordering and
// returns it with the place of each table's columns in the joined
// output. Each scan emits its table's keptCols, so every join, exchange
// and spill above it carries only those.
func (r *Runner) lowerSpec(b *query.Bound, ord specOrder) (Node, streamCols) {
	sc := streamCols{offs: make([]int, len(b.Tables)), keep: keptCols(b)}
	scans := make([]*Scan, len(b.Tables))
	for _, ti := range ord.seq {
		scans[ti] = &Scan{Table: b.Tables[ti].Table, Preds: b.Tables[ti].Preds, Cols: sc.keep[ti]}
		sc.offs[ti] = sc.width
		sc.width += scans[ti].width()
	}
	var node Node = scans[ord.seq[0]]
	placed := map[int]bool{ord.seq[0]: true}
	for i := 1; i < len(ord.seq); i++ {
		ti := ord.seq[i]
		e := b.Joins[ord.edges[i-1]]
		// Orient the edge: one endpoint is already in the prefix.
		pTbl, pCol, tCol := e.L, e.LCols[0], e.RCols[0]
		if !placed[pTbl] {
			pTbl, pCol, tCol = e.R, e.RCols[0], e.LCols[0]
		}
		node = &Join{Left: node, Right: scans[ti], LCol: sc.at(pTbl, pCol), RCol: sc.local(ti, tCol)}
		placed[ti] = true
	}
	return node, sc
}

// keptCols lists, per table, the columns its scan emits: nil (every
// column) for a non-grouped spec, which returns whole rows. A grouped
// spec reads fewer: a table keeps every attribute of every join edge
// that touches it (the tree's, the residual filters' and the extra
// pairs of multi-attribute edges) and its groupInputs, ascending. A
// table that needs none — a one-table COUNT(*) — keeps its first
// column, so no stream is ever zero columns wide; one that needs all
// keeps nil.
func keptCols(b *query.Bound) [][]int {
	keep := make([][]int, len(b.Tables))
	if !b.Grouped() {
		return keep
	}
	add := func(ti, c int) {
		if !slices.Contains(keep[ti], c) {
			keep[ti] = append(keep[ti], c)
		}
	}
	for _, e := range b.Joins {
		for ai := range e.LCols {
			add(e.L, e.LCols[ai])
			add(e.R, e.RCols[ai])
		}
	}
	for _, c := range groupInputs(b) {
		add(c.Table, c.Col)
	}
	for ti, cols := range keep {
		if len(cols) == 0 {
			cols = []int{0}
		}
		slices.Sort(cols)
		keep[ti] = cols
		if len(cols) == b.Tables[ti].Table.Schema.NumCols() {
			keep[ti] = nil
		}
	}
	return keep
}

// residualPairs lists the global column pairs the joined stream must
// still filter on: every attribute pair of edges the tree skipped
// (cyclic closing edges) and the second-and-later pairs of
// multi-attribute tree edges (the tree consumed pair 0).
func residualPairs(b *query.Bound, ord specOrder, sc streamCols) [][2]int {
	used := make(map[int]bool, len(ord.edges))
	for _, ei := range ord.edges {
		used[ei] = true
	}
	var pairs [][2]int
	for ei, e := range b.Joins {
		start := 0
		if used[ei] {
			start = 1
		}
		for ai := start; ai < len(e.LCols); ai++ {
			pairs = append(pairs, [2]int{sc.at(e.L, e.LCols[ai]), sc.at(e.R, e.RCols[ai])})
		}
	}
	return pairs
}

// groupInputs lists the columns a grouped spec's group-by reads, once
// each, in declaration order (table, then column) — the fragments'
// projection, so the group-by's column indexes depend on the spec alone.
func groupInputs(b *query.Bound) []query.BoundCol {
	var in []query.BoundCol
	add := func(c query.BoundCol) {
		if !slices.Contains(in, c) {
			in = append(in, c)
		}
	}
	for _, c := range b.GroupBy {
		add(c)
	}
	for _, a := range b.Aggs {
		if a.Table >= 0 {
			add(query.BoundCol{Table: a.Table, Col: a.Col})
		}
	}
	slices.SortFunc(in, func(x, y query.BoundCol) int {
		return cmp.Or(cmp.Compare(x.Table, y.Table), cmp.Compare(x.Col, y.Col))
	})
	return in
}

// groupSpec maps the bound grouping clauses onto the projected stream
// of groupInputs.
func groupSpec(b *query.Bound) exec.GroupBySpec {
	in := groupInputs(b)
	gs := exec.GroupBySpec{}
	for _, c := range b.GroupBy {
		gs.GroupCols = append(gs.GroupCols, slices.Index(in, c))
	}
	for _, a := range b.Aggs {
		as := exec.AggSpec{Fn: aggFn(a.Func), Col: -1}
		if a.Table >= 0 {
			as.Col = slices.Index(in, query.BoundCol{Table: a.Table, Col: a.Col})
		}
		gs.Aggs = append(gs.Aggs, as)
	}
	return gs
}

func aggFn(f query.AggFunc) exec.AggFn {
	switch f {
	case query.AggSum:
		return exec.AggSum
	case query.AggMin:
		return exec.AggMin
	case query.AggMax:
		return exec.AggMax
	case query.AggAvg:
		return exec.AggAvg
	}
	return exec.AggCount
}

// outColumns lists, as global indexes of the (possibly permuted and
// narrowed) joined stream, the columns each fragment emits: a grouped
// spec's groupInputs, else every table's columns in declaration order.
// nil means the joined stream is already exactly that.
func outColumns(b *query.Bound, sc streamCols) []int {
	var cols []int
	if b.Grouped() {
		for _, c := range groupInputs(b) {
			cols = append(cols, sc.at(c.Table, c.Col))
		}
	} else {
		for i, t := range b.Tables {
			for c := 0; c < t.Table.Schema.NumCols(); c++ {
				cols = append(cols, sc.at(i, c))
			}
		}
	}
	for i, c := range cols {
		if c != i {
			return cols
		}
	}
	if len(cols) == sc.width {
		return nil
	}
	return cols
}

// planSpecOrder decides the join order from zone-map metadata alone.
// Greedy: start with the edge whose two tables' pruned cardinalities
// sum smallest (the cheapest first join, smaller side leftmost), then
// repeatedly fold in the cheapest unjoined table adjacent to the
// joined set. FixedOrder instead walks tables in declaration order
// (lowest-index adjacent table next) — the baseline the benchmarks
// compare greedy against. Both orders early-exit to the empty plan
// when any table prunes to zero blocks or any edge's zone-map unions
// cannot overlap.
func (r *Runner) planSpecOrder(b *query.Bound) specOrder {
	n := len(b.Tables)
	refs := make([][]core.BlockRef, n)
	ests := make([]int, n)
	for i, t := range b.Tables {
		refs[i] = r.scanRefs(&Scan{Table: t.Table, Preds: t.Preds})
		ests[i] = refRows(refs[i])
		if ests[i] == 0 {
			return specOrder{empty: true}
		}
	}
	for _, e := range b.Joins {
		for ai := range e.LCols {
			lu := unionRange(refs[e.L], e.LCols[ai])
			ru := unionRange(refs[e.R], e.RCols[ai])
			if !lu.Overlaps(ru) {
				// The two sides' value ranges are disjoint: no row pair can
				// ever satisfy this edge, so the join is provably empty.
				return specOrder{empty: true}
			}
		}
	}
	if n == 1 {
		return specOrder{seq: []int{0}}
	}

	ord := specOrder{}
	placed := make([]bool, n)
	place := func(ti, ei int) {
		ord.seq = append(ord.seq, ti)
		placed[ti] = true
		if ei >= 0 {
			ord.edges = append(ord.edges, ei)
		}
	}

	if r.FixedOrder {
		place(0, -1)
	} else {
		// Cheapest first edge; the smaller side becomes the leftmost scan.
		best := -1
		for ei, e := range b.Joins {
			if best < 0 || ests[e.L]+ests[e.R] < ests[b.Joins[best].L]+ests[b.Joins[best].R] {
				best = ei
			}
		}
		first, second := b.Joins[best].L, b.Joins[best].R
		if ests[second] < ests[first] {
			first, second = second, first
		}
		place(first, -1)
		place(second, best)
	}

	for len(ord.seq) < n {
		bestT, bestE := -1, -1
		for ei, e := range b.Joins {
			var cand int
			switch {
			case placed[e.L] && !placed[e.R]:
				cand = e.R
			case placed[e.R] && !placed[e.L]:
				cand = e.L
			default:
				continue
			}
			better := bestT < 0
			if !better {
				if r.FixedOrder {
					better = cand < bestT
				} else {
					better = ests[cand] < ests[bestT]
				}
			}
			if better {
				bestT, bestE = cand, ei
			}
		}
		// Bind guarantees connectivity, so an adjacent table always exists.
		place(bestT, bestE)
	}
	return ord
}

// unionRange folds the blocks' zone-map intervals on col into one
// covering interval for the whole pruned ref set: a typed fold over the
// catalog's int vectors when every zone there is int class of one kind,
// else a fold of the boxed ranges. A block with no value in the column
// contributes the provably-empty Ranget, as in the boxed fold.
func unionRange(refs []core.BlockRef, col int) predicate.Range {
	kind, lo, hi, ok := core.IntZones(refs, col)
	if !ok {
		var u predicate.Range
		for i, ref := range refs {
			rg := ref.JoinRange(col)
			if i == 0 {
				u = rg
				continue
			}
			u = rangeUnion(u, rg)
		}
		return u
	}
	var u predicate.Range
	zoned, empty := false, -1
	var mn, mx int64
	for i := range lo {
		switch {
		case lo[i] > hi[i]:
			empty = i
		case !zoned:
			mn, mx, zoned = lo[i], hi[i], true
		default:
			mn, mx = min(mn, lo[i]), max(mx, hi[i])
		}
	}
	if zoned {
		u = predicate.Closed(value.Value{K: kind, I: mn}, value.Value{K: kind, I: mx})
	}
	if empty >= 0 {
		if e := refs[empty].JoinRange(col); zoned {
			u = rangeUnion(u, e)
		} else {
			u = e
		}
	}
	return u
}

// rangeUnion is the smallest interval covering both inputs: bounds
// survive only when both sides have them, ties stay open only when
// both endpoints are open.
func rangeUnion(a, b predicate.Range) predicate.Range {
	var out predicate.Range
	if a.HasLo && b.HasLo {
		out.HasLo = true
		switch c := value.Compare(a.Lo, b.Lo); {
		case c < 0:
			out.Lo, out.LoOpen = a.Lo, a.LoOpen
		case c > 0:
			out.Lo, out.LoOpen = b.Lo, b.LoOpen
		default:
			out.Lo, out.LoOpen = a.Lo, a.LoOpen && b.LoOpen
		}
	}
	if a.HasHi && b.HasHi {
		out.HasHi = true
		switch c := value.Compare(a.Hi, b.Hi); {
		case c > 0:
			out.Hi, out.HiOpen = a.Hi, a.HiOpen
		case c < 0:
			out.Hi, out.HiOpen = b.Hi, b.HiOpen
		default:
			out.Hi, out.HiOpen = a.Hi, a.HiOpen && b.HiOpen
		}
	}
	return out
}

// cachedSpecOrder memoizes planSpecOrder in the plan cache under the
// spec fingerprint + table layout versions + runner knobs. The
// ordering depends on pruned cardinalities and zone maps, both
// functions of (layout, predicates), so the invalidation contract of
// table-join plans carries over unchanged.
func (r *Runner) cachedSpecOrder(b *query.Bound) specOrder {
	if r.Cache == nil {
		return r.planSpecOrder(b)
	}
	key := r.specKey(b)
	if v, ok := r.Cache.getAny(key); ok {
		if ord, typed := v.(specOrder); typed {
			r.CacheHits++
			return ord
		}
	}
	ord := r.planSpecOrder(b)
	r.Cache.putAny(key, ord)
	r.CacheMisses++
	return ord
}

// specKey renders everything planSpecOrder's answer depends on: the
// spec's logical fingerprint (tables, aliases, predicates, the full
// join graph, grouping — see query.Bound.Fingerprint), each table's
// layout version, and the runner/executor knobs that steer
// ordering and the downstream strategy decisions.
func (r *Runner) specKey(b *query.Bound) string {
	var sb strings.Builder
	sb.Grow(192)
	sb.WriteString("S|")
	sb.WriteString(b.Fingerprint())
	sb.WriteByte('|')
	for i, t := range b.Tables {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.Table.Name)
		sb.WriteByte('@')
		sb.WriteString(strconv.FormatUint(t.Table.Version(), 10))
	}
	sb.WriteByte('|')
	if r.ForceShuffle {
		sb.WriteByte('F')
	}
	if r.Ex.NoPrune {
		sb.WriteByte('N')
	}
	if r.FixedOrder {
		sb.WriteByte('O')
	}
	sb.WriteString(strconv.Itoa(r.budget()))
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatInt(r.Ex.MemLimit(), 10))
	return sb.String()
}
