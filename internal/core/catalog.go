package core

import (
	"cmp"

	"adaptdb/internal/block"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/value"
)

// catalog is one partitioning tree's block metadata — the paper keeps
// each block's tuple count and Ranget in the tree (§3, §4.1) — held
// column-major and indexed by bucket ID, so the planner reads it the
// way a scan reads a block: one typed loop per column. Per bucket it
// holds liveness, the row count, the store path (built once, at write)
// and the primary replica; per column, the zone maps as typed min/max
// vectors.
//
// A catalog is written only by the Table methods that write its blocks
// (Load, MoveBuckets, ReplaceTreeData, Resplit) and SetPlacement, and
// never filled lazily: compiles read it concurrently (two serving
// tenants under the layout read lock, TCP workers), and a write happens
// only while no compile runs on the table. Each of those methods, and
// AddTree and DropTree, moves the table's layout version
// (Table.Version), which the plan cache keys on.
type catalog struct {
	live  []bool
	count []int
	path  []string
	node  []dfs.NodeID
	// rows is the running total of count over live buckets (|T| of the
	// Fig. 11 algorithm), blocks the number of live buckets.
	rows, blocks int
	zones        []zoneCol
}

// zoneCol is one column's zone maps across the tree's buckets. While
// every zone written so far has one kind, the bounds live in the typed
// vectors of that kind's class (Int, Date and Bool in ilo/ihi, Float in
// flo/fhi, String in slo/shi); the first zone of another kind — across
// blocks, or within a mixed-kind block — moves the column to the boxed
// blo/bhi for good.
type zoneCol struct {
	// kind is the one kind of every typed zone; Null before the first.
	kind  value.Kind
	boxed bool
	// has marks the buckets whose block holds a non-NULL value in the
	// column; the others have no zone (the provably-empty Ranget).
	has      []bool
	ilo, ihi []int64
	flo, fhi []float64
	slo, shi []string
	blo, bhi []value.Value
}

func newCatalog(ncols int) *catalog {
	return &catalog{zones: make([]zoneCol, ncols)}
}

// emptyZone is the Ranget of a block with no value in a column: a range
// no other range overlaps (block.Meta.Range's convention).
var emptyZone = predicate.Range{HasLo: true, HasHi: true, Lo: value.NewInt(1), Hi: value.NewInt(0)}

// resize returns s with length n, keeping its prefix.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// grow makes room for bucket IDs below n.
func (c *catalog) grow(n int) {
	if n <= len(c.live) {
		return
	}
	c.live = resize(c.live, n)
	c.count = resize(c.count, n)
	c.path = resize(c.path, n)
	c.node = resize(c.node, n)
	for i := range c.zones {
		c.zones[i].grow(n)
	}
}

func (z *zoneCol) grow(n int) {
	z.has = resize(z.has, n)
	switch {
	case z.boxed:
		z.blo, z.bhi = resize(z.blo, n), resize(z.bhi, n)
	case value.IntClass(z.kind):
		z.ilo, z.ihi = resize(z.ilo, n), resize(z.ihi, n)
	case z.kind == value.Float:
		z.flo, z.fhi = resize(z.flo, n), resize(z.fhi, n)
	case z.kind == value.String:
		z.slo, z.shi = resize(z.slo, n), resize(z.shi, n)
	}
}

// set records bucket b's block, stored at path with primary replica
// node.
func (c *catalog) set(b block.ID, path string, node dfs.NodeID, blk *block.Block) {
	c.grow(int(b) + 1)
	if c.live[b] {
		c.rows -= c.count[b]
	} else {
		c.live[b] = true
		c.blocks++
	}
	c.count[b] = blk.Len()
	c.rows += c.count[b]
	c.path[b], c.node[b] = path, node
	n := len(c.live)
	for ci := range c.zones {
		c.zones[ci].set(b, blk.Min(ci), blk.Max(ci), n)
	}
}

// drop forgets bucket b.
func (c *catalog) drop(b block.ID) {
	if int(b) >= len(c.live) || !c.live[b] {
		return
	}
	c.live[b] = false
	c.blocks--
	c.rows -= c.count[b]
	c.count[b], c.path[b] = 0, ""
	for ci := range c.zones {
		c.zones[ci].has[b] = false
	}
}

// set records one bucket's zone [lo, hi] (both NULL when the block has
// no value in the column); n is the catalog's bucket capacity.
func (z *zoneCol) set(b block.ID, lo, hi value.Value, n int) {
	z.has[b] = false
	if lo.IsNull() {
		return
	}
	if !z.boxed && (lo.K != hi.K || (z.kind != value.Null && z.kind != lo.K)) {
		z.toBoxed(n)
	}
	if !z.boxed && z.kind == value.Null {
		z.kind = lo.K
		z.grow(n)
	}
	z.has[b] = true
	switch {
	case z.boxed:
		z.blo[b], z.bhi[b] = lo, hi
	case value.IntClass(z.kind):
		z.ilo[b], z.ihi[b] = lo.I, hi.I
	case z.kind == value.Float:
		z.flo[b], z.fhi[b] = lo.F, hi.F
	default:
		z.slo[b], z.shi[b] = lo.S, hi.S
	}
}

// toBoxed moves the typed zones to blo/bhi.
func (z *zoneCol) toBoxed(n int) {
	z.blo, z.bhi = make([]value.Value, n), make([]value.Value, n)
	for b, ok := range z.has {
		if ok {
			z.blo[b], z.bhi[b] = z.bounds(block.ID(b))
		}
	}
	z.boxed = true
	z.ilo, z.ihi, z.flo, z.fhi, z.slo, z.shi = nil, nil, nil, nil, nil, nil
}

// bounds returns bucket b's zone as values (both NULL when it has none).
func (z *zoneCol) bounds(b block.ID) (lo, hi value.Value) {
	switch {
	case !z.has[b]:
		return value.Value{}, value.Value{}
	case z.boxed:
		return z.blo[b], z.bhi[b]
	case value.IntClass(z.kind):
		return value.Value{K: z.kind, I: z.ilo[b]}, value.Value{K: z.kind, I: z.ihi[b]}
	case z.kind == value.Float:
		return value.NewFloat(z.flo[b]), value.NewFloat(z.fhi[b])
	}
	return value.NewString(z.slo[b]), value.NewString(z.shi[b])
}

// zone returns bucket b's Ranget on column col: block.Meta.Range read
// from the catalog.
func (c *catalog) zone(b block.ID, col int) predicate.Range {
	if col >= len(c.zones) || c.count[b] == 0 || !c.zones[col].has[b] {
		return emptyZone
	}
	lo, hi := c.zones[col].bounds(b)
	return predicate.Closed(lo, hi)
}

// match returns, in bucket order, the live non-empty buckets marked as
// candidates (every one when mark is nil) whose zone maps may hold a
// row satisfying the per-column ranges: block.Meta.MaybeMatches, one
// typed loop per range.
func (c *catalog) match(mark []bool, ranges map[int]predicate.Range) []block.ID {
	for col := range ranges {
		if col >= len(c.zones) {
			return nil // no block has a zone past its last column
		}
	}
	cands := make([]block.ID, 0, c.blocks)
	for b, live := range c.live {
		if live && c.count[b] > 0 && (mark == nil || mark[b]) {
			cands = append(cands, block.ID(b))
		}
	}
	for col, r := range ranges {
		cands = c.zones[col].prune(cands, r)
	}
	return cands
}

// prune keeps the candidate buckets whose zone on the column overlaps r
// — block.Meta.MaybeMatches for one column, NULL, NaN and cross-kind
// semantics included — compacting cands in place. A bound of another
// kind than the column's typed zones orders against all of them alike
// (value.Compare orders kinds), so it keeps or drops every bucket
// without a per-bucket test.
func (z *zoneCol) prune(cands []block.ID, r predicate.Range) []block.ID {
	if r.Empty() || (!z.boxed && z.kind == value.Null) {
		return cands[:0]
	}
	if z.boxed {
		out := cands[:0]
		for _, b := range cands {
			if z.has[b] && predicate.Closed(z.blo[b], z.bhi[b]).Overlaps(r) {
				out = append(out, b)
			}
		}
		return out
	}
	// A block overlaps r unless its max is below r's lower bound or its
	// min above r's upper bound.
	loCheck, hiCheck := r.HasLo, r.HasHi
	if loCheck && r.Lo.K != z.kind {
		if r.Lo.K > z.kind {
			return cands[:0]
		}
		loCheck = false
	}
	if hiCheck && r.Hi.K != z.kind {
		if r.Hi.K < z.kind {
			return cands[:0]
		}
		hiCheck = false
	}
	switch {
	case value.IntClass(z.kind):
		return pruneTyped(cands, z.has, z.ilo, z.ihi, r, r.Lo.I, r.Hi.I, loCheck, hiCheck)
	case z.kind == value.Float:
		return pruneTyped(cands, z.has, z.flo, z.fhi, r, r.Lo.F, r.Hi.F, loCheck, hiCheck)
	}
	return pruneTyped(cands, z.has, z.slo, z.shi, r, r.Lo.S, r.Hi.S, loCheck, hiCheck)
}

// pruneTyped is prune's loop over one kind's vectors. cmp.Compare is
// value.Compare's order within a kind: for floats it puts NaN below
// every other value, equal to any NaN, and -0 equal to +0.
func pruneTyped[T cmp.Ordered](cands []block.ID, has []bool, los, his []T, r predicate.Range, lo, hi T, loCheck, hiCheck bool) []block.ID {
	out := cands[:0]
	for _, b := range cands {
		if !has[b] {
			continue
		}
		if loCheck {
			if c := cmp.Compare(his[b], lo); c < 0 || (c == 0 && r.LoOpen) {
				continue
			}
		}
		if hiCheck {
			if c := cmp.Compare(hi, los[b]); c < 0 || (c == 0 && r.HiOpen) {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// IntZones gathers the refs' zone maps on column col as int64 vectors,
// in ref order — what the typed hyper-join overlap test and zone-map
// unions read. ok reports that every zone there has one int-class kind,
// returned as kind (Int when no ref has a zone). A ref whose block has
// no value in the column gets lo = 1, hi = 0, the provably-empty
// Ranget: the only entries with lo > hi.
func IntZones(refs []BlockRef, col int) (kind value.Kind, lo, hi []int64, ok bool) {
	lo, hi = make([]int64, len(refs)), make([]int64, len(refs))
	for i, r := range refs {
		if col >= len(r.cat.zones) || r.Count == 0 || !r.cat.zones[col].has[r.Bucket] {
			lo[i], hi[i] = 1, 0
			continue
		}
		z := &r.cat.zones[col]
		if z.boxed || !value.IntClass(z.kind) || (kind != value.Null && kind != z.kind) {
			return 0, nil, nil, false
		}
		kind = z.kind
		lo[i], hi[i] = z.ilo[r.Bucket], z.ihi[r.Bucket]
	}
	if kind == value.Null {
		kind = value.Int
	}
	return kind, lo, hi, true
}
