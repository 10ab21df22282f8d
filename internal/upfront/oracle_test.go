package upfront_test

import (
	"bytes"
	"math/rand"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// Both tree builders produce byte-identical trees with the lazy split
// search and with the exhaustive one (upfront.RefGrowNode), over samples
// with tied values, constant and all-NULL columns and NULL cells.
func TestBuildersMatchExhaustiveSearch(t *testing.T) {
	sch := upfront.OracleSchema
	for seed := int64(0); seed < 60; seed++ {
		rows := upfront.OracleSample(seed)
		depth := 1 + int(seed%9)

		got := upfront.Builder{Schema: sch, Depth: depth, Seed: seed}.Build(rows)
		attrs := []int{0, 1, 2, 3, 4, 5}
		rng := rand.New(rand.NewSource(seed))
		want := tree.NewWithRoot(sch, upfront.RefGrowNode(rows, attrs, depth, map[int]int{}, rng, counter()), -1, 0)
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("seed %d: upfront tree %v, exhaustive search %v", seed, got, want)
		}

		b := twophase.Builder{Schema: sch, JoinAttr: int(seed % 6), JoinLevels: int(seed/6) % (depth + 1), TotalDepth: depth, Seed: seed}
		got = b.Build(rows)
		want = exhaustiveTwoPhase(b, got, rows)
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("seed %d: two-phase tree %v, exhaustive search %v", seed, got, want)
		}
	}
}

// exhaustiveTwoPhase rebuilds the two-phase tree built from rows with the
// exhaustive split search. Its join levels come from built itself — no
// split search runs there — and every selection subtree below them is
// regrown in preorder from the sample rows that reach it, with one ways
// map and one RNG seeded as Build seeds them. b.JoinLevels must not
// exceed b.TotalDepth, and b.SelAttrs must be empty (every column but
// the join attribute).
func exhaustiveTwoPhase(b twophase.Builder, built *tree.Tree, rows []tuple.Tuple) *tree.Tree {
	var sel []int
	for a := 0; a < b.Schema.NumCols(); a++ {
		if a != b.JoinAttr {
			sel = append(sel, a)
		}
	}
	ways := map[int]int{}
	rng := rand.New(rand.NewSource(b.Seed))
	alloc := counter()
	var rec func(n *tree.Node, rows []tuple.Tuple, d int) *tree.Node
	rec = func(n *tree.Node, rows []tuple.Tuple, d int) *tree.Node {
		if d >= b.JoinLevels || n.Leaf || n.Attr != b.JoinAttr {
			return upfront.RefGrowNode(rows, sel, b.TotalDepth-d, ways, rng, alloc)
		}
		var left, right []tuple.Tuple
		for _, r := range rows {
			if value.Compare(r[n.Attr], n.Cut) <= 0 {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		return &tree.Node{Attr: n.Attr, Cut: n.Cut, Left: rec(n.Left, left, d+1), Right: rec(n.Right, right, d+1)}
	}
	return tree.NewWithRoot(b.Schema, rec(built.Root, rows, 0), b.JoinAttr, b.JoinLevels)
}

// counter hands out bucket IDs 0, 1, 2, … as the builders do.
func counter() func() block.ID {
	var next block.ID
	return func() block.ID {
		next++
		return next - 1
	}
}
