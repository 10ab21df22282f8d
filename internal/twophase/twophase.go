package twophase

import (
	"math/rand"

	"adaptdb/internal/block"
	"adaptdb/internal/sample"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// Builder configures a two-phase partitioning run.
type Builder struct {
	Schema *schema.Schema
	// JoinAttr is the column injected at the top of the tree.
	JoinAttr int
	// JoinLevels is how many top levels split on JoinAttr (the paper
	// defaults to half the tree depth; Fig. 16 sweeps this).
	JoinLevels int
	// SelAttrs are the selection attributes for the lower levels. Empty
	// means all columns except JoinAttr.
	SelAttrs []int
	// TotalDepth is the full tree depth; TotalDepth - JoinLevels levels go
	// to selection attributes.
	TotalDepth int
	Seed       int64
}

// Build constructs the two-phase tree from a data sample. Join-attribute
// cut points are medians computed per subtree over the sorted sample
// ("we do this efficiently by sorting all values of the attribute in the
// sample at the root, and recursively computing medians for each subtree"
// — §5.1); lower levels use upfront.GrowNode.
func (b Builder) Build(rows []tuple.Tuple) *tree.Tree {
	joinLevels := b.JoinLevels
	if joinLevels > b.TotalDepth {
		joinLevels = b.TotalDepth
	}
	selAttrs := b.SelAttrs
	if len(selAttrs) == 0 {
		for i := 0; i < b.Schema.NumCols(); i++ {
			if i != b.JoinAttr {
				selAttrs = append(selAttrs, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(b.Seed))
	ways := make(map[int]int)
	var next block.ID
	alloc := func() block.ID {
		id := next
		next++
		return id
	}
	root := b.growJoinLevels(rows, joinLevels, selAttrs, ways, rng, alloc)
	return tree.NewWithRoot(b.Schema, root, b.JoinAttr, joinLevels)
}

func (b Builder) growJoinLevels(rows []tuple.Tuple, joinLevels int, selAttrs []int, ways map[int]int, rng *rand.Rand, alloc func() block.ID) *tree.Node {
	if joinLevels <= 0 {
		selDepth := b.TotalDepth - b.JoinLevels
		if b.JoinLevels > b.TotalDepth {
			selDepth = 0
		}
		return upfront.GrowNode(rows, selAttrs, selDepth, ways, rng, alloc)
	}
	cut, ok := joinMedian(rows, b.JoinAttr)
	if !ok {
		// Cannot split the join attribute further (e.g. single distinct
		// value in this subtree); fall through to selection levels plus
		// whatever join levels remain as extra selection depth.
		selDepth := b.TotalDepth - b.JoinLevels + joinLevels
		return upfront.GrowNode(rows, selAttrs, selDepth, ways, rng, alloc)
	}
	var left, right []tuple.Tuple
	for _, t := range rows {
		if value.Compare(t[b.JoinAttr], cut) <= 0 {
			left = append(left, t)
		} else {
			right = append(right, t)
		}
	}
	return &tree.Node{
		Attr:  b.JoinAttr,
		Cut:   cut,
		Left:  b.growJoinLevels(left, joinLevels-1, selAttrs, ways, rng, alloc),
		Right: b.growJoinLevels(right, joinLevels-1, selAttrs, ways, rng, alloc),
	}
}

// joinMedian picks the median cut of the join attribute over the local
// sample, guaranteeing a non-degenerate split (cut strictly below max).
func joinMedian(rows []tuple.Tuple, attr int) (value.Value, bool) {
	return sample.LowerMedianCut(sample.SortValues(sample.Column(rows, attr)))
}
