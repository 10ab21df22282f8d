// Package upfront implements Amoeba's upfront partitioner (§3.1,
// Fig. 3): without any workload, recursively split the dataset into a
// balanced binary partitioning tree over as many attributes as possible,
// using heterogeneous branching so different subtrees may split on
// different attributes, and sample medians as cut points so blocks come
// out roughly equal sized despite skew.
package upfront

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"

	"adaptdb/internal/block"
	"adaptdb/internal/sample"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Builder configures an upfront partitioning run.
type Builder struct {
	Schema *schema.Schema
	// Attrs are the candidate partitioning attributes (column indexes).
	// Empty means all columns.
	Attrs []int
	// Depth is the number of tree levels, i.e. 2^Depth target buckets.
	// Amoeba derives it as ⌊log2(D/P)⌋ for dataset size D and block size
	// P; callers compute it with DepthForBlocks.
	Depth int
	// Seed drives attribute tie-breaking; runs are deterministic.
	Seed int64
}

// DepthForBlocks returns the tree depth needed so that numRows rows split
// into buckets of at most rowsPerBlock rows: ⌈log2(numRows/rowsPerBlock)⌉.
func DepthForBlocks(numRows, rowsPerBlock int) int {
	if rowsPerBlock <= 0 || numRows <= rowsPerBlock {
		return 0
	}
	d := 0
	need := (numRows + rowsPerBlock - 1) / rowsPerBlock
	for (1 << d) < need {
		d++
	}
	return d
}

// Build constructs the partitioning tree from a sample of the data.
// The returned tree has no join attribute (JoinAttr = -1).
func (b Builder) Build(rows []tuple.Tuple) *tree.Tree {
	attrs := b.Attrs
	if len(attrs) == 0 {
		attrs = make([]int, b.Schema.NumCols())
		for i := range attrs {
			attrs[i] = i
		}
	}
	rng := rand.New(rand.NewSource(b.Seed))
	ways := make(map[int]int, len(attrs))
	var next block.ID
	alloc := func() block.ID {
		id := next
		next++
		return id
	}
	root := GrowNode(rows, attrs, b.Depth, ways, rng, alloc)
	return tree.NewWithRoot(b.Schema, root, -1, 0)
}

// GrowNode recursively builds `depth` levels of heterogeneous-branching
// splits over attrs, choosing at each node the least-used attribute
// (fewest ways so far, matching Amoeba's goal that "the average number of
// ways each attribute is partitioned on is almost the same") that can
// actually split the local sample. ways is shared across the whole build
// so sibling subtrees naturally diversify. alloc hands out bucket IDs.
//
// Exported so two-phase partitioning can grow its lower, selection-
// attribute levels with the identical algorithm (§5.1 second phase).
func GrowNode(rows []tuple.Tuple, attrs []int, depth int, ways map[int]int, rng *rand.Rand, alloc func() block.ID) *tree.Node {
	if depth <= 0 {
		return &tree.Node{Leaf: true, Bucket: alloc()}
	}
	attr, cut, ok := chooseSplit(rows, attrs, ways, rng)
	if !ok {
		// No attribute can split the local sample further; stop early.
		return &tree.Node{Leaf: true, Bucket: alloc()}
	}
	ways[attr]++
	var left, right []tuple.Tuple
	for _, t := range rows {
		if value.Compare(t[attr], cut) <= 0 {
			left = append(left, t)
		} else {
			right = append(right, t)
		}
	}
	return &tree.Node{
		Attr:  attr,
		Cut:   cut,
		Left:  GrowNode(left, attrs, depth-1, ways, rng, alloc),
		Right: GrowNode(right, attrs, depth-1, ways, rng, alloc),
	}
}

// chooseSplit picks the least-used splittable attribute and its median
// cut. An attribute is splittable when the local sample has at least two
// distinct values for it. Returns ok=false when nothing can split.
//
// Ties break by a seeded shuffle of attrs: of the splittable attributes
// with the fewest ways, the first in shuffled order wins. A stable sort
// of the shuffled candidates by ways puts that attribute first among
// the splittable ones, so the search stops there, without sorting the
// sample for attributes that cannot win.
func chooseSplit(rows []tuple.Tuple, attrs []int, ways map[int]int, rng *rand.Rand) (attr int, cut value.Value, ok bool) {
	order := append([]int(nil), attrs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ways[a], ways[b]) })
	for _, a := range order {
		if c, can := medianCut(rows, a); can {
			return a, c, true
		}
	}
	return 0, value.Value{}, false
}

// medianCut returns a cut point for attr such that the local sample is
// split into two non-empty halves: the lower median of the distinct
// values. Reports false when fewer than two distinct values exist.
func medianCut(rows []tuple.Tuple, attr int) (value.Value, bool) {
	vals := sample.Column(rows, attr)
	if len(vals) < 2 {
		return value.Value{}, false
	}
	sorted := sample.SortValues(append([]value.Value(nil), vals...))
	// Deduplicate to guarantee cut < max so both sides are non-empty.
	distinct := sorted[:1]
	for _, v := range sorted[1:] {
		if value.Compare(v, distinct[len(distinct)-1]) != 0 {
			distinct = append(distinct, v)
		}
	}
	if len(distinct) < 2 {
		return value.Value{}, false
	}
	// Use the value at the median *position* of the full (non-distinct)
	// sorted sample when possible, clamped below max, so skewed data still
	// yields balanced halves. distinct shares sorted's backing array, so
	// the loop above overwrote sorted's prefix with the distinct values:
	// when more than (n−1)/2 distinct values exist, the position read
	// here lands in the distinct list and the cut sits above the lower
	// median sample.LowerMedianCut picks. Every upfront tree, and every
	// layout and figure built on one, depends on this cut, so it stays.
	med := sorted[(len(sorted)-1)/2]
	if value.Compare(med, distinct[len(distinct)-1]) == 0 {
		// Median equals max: step down to the previous distinct value.
		i := sort.Search(len(distinct), func(i int) bool {
			return value.Compare(distinct[i], med) >= 0
		})
		med = distinct[i-1]
	}
	return med, true
}

// Partition routes every row through the tree, returning the physical
// blocks keyed by bucket ID. This is the single load pass Amoeba performs
// after computing the tree from the sample.
func Partition(t *tree.Tree, rows []tuple.Tuple) map[block.ID]*block.Block {
	// Route first, then transpose each bucket's rows in one bulk append:
	// the load pays one typed loop per column per bucket, not a kind
	// dispatch and a zone-map fold per cell. The rows are grouped by a
	// counting sort on their bucket, which keeps their order.
	dest := make([]block.ID, len(rows))
	count := make([]int, t.NextBucket())
	for i, r := range rows {
		dest[i] = t.Route(r)
		count[dest[i]]++
	}
	// end[b] starts as bucket b's first slot in grouped and, once the rows
	// are dealt out, is one past its last.
	end := make([]int, len(count))
	for b := 1; b < len(count); b++ {
		end[b] = end[b-1] + count[b-1]
	}
	grouped := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		grouped[end[dest[i]]] = r
		end[dest[i]]++
	}
	out := make(map[block.ID]*block.Block)
	for b, c := range count {
		if c == 0 {
			continue
		}
		blk := block.New(t.Schema)
		blk.AppendRows(grouped[end[b]-c : end[b]])
		out[block.ID(b)] = blk
	}
	return out
}
