package hyperjoin

import (
	"fmt"

	"adaptdb/internal/predicate"
)

// OverlapVectors computes V = {v_1..v_n}: for each R block i, the set of
// S blocks whose join-attribute range intersects R block i's (§4.1.1,
// "vij = 1(Ranget(ri) ∩ Ranget(sj) ≠ ∅)"). rRanges and sRanges are the
// zone-map intervals of the two relations' blocks on the join attribute.
// The straightforward O(n·m) algorithm matches the paper.
func OverlapVectors(rRanges, sRanges []predicate.Range) []BitVec {
	out := make([]BitVec, len(rRanges))
	for i, rr := range rRanges {
		v := NewBitVec(len(sRanges))
		for j, sr := range sRanges {
			if rr.Overlaps(sr) {
				v.Set(j)
			}
		}
		out[i] = v
	}
	return out
}

// OverlapInts is OverlapVectors over int-class zone maps of one kind,
// given as closed intervals [lo, hi] per block; an interval with
// lo > hi is empty and overlaps nothing. It is the planner's hot path
// (every TPC-H join key is an integer); OverlapVectors stays the
// reference for other kinds.
func OverlapInts(rLo, rHi, sLo, sHi []int64) []BitVec {
	out := make([]BitVec, len(rLo))
	// Only non-empty S intervals can overlap; test those alone.
	live := make([]int, 0, len(sLo))
	for j := range sLo {
		if sLo[j] <= sHi[j] {
			live = append(live, j)
		}
	}
	for i := range rLo {
		v := NewBitVec(len(sLo))
		if lo, hi := rLo[i], rHi[i]; lo <= hi {
			for _, j := range live {
				if sLo[j] <= hi && lo <= sHi[j] {
					v.Set(j)
				}
			}
		}
		out[i] = v
	}
	return out
}

// Grouping is a partitioning P of R's block indexes: disjoint groups
// whose union is {0..n-1}, each of size ≤ B.
type Grouping [][]int

// Cost computes C(P) = Σ_p δ(ṽ(p)): the total number of S blocks read
// across all groups, counting repeats (§4.1.1).
func Cost(g Grouping, V []BitVec) int {
	total := 0
	for _, p := range g {
		total += Union(V, p).PopCount()
	}
	return total
}

// Validate checks the Problem 1 constraints: every block appears exactly
// once and no group exceeds B.
func Validate(g Grouping, n, B int) error {
	seen := make([]bool, n)
	count := 0
	for gi, p := range g {
		if len(p) > B {
			return fmt.Errorf("hyperjoin: group %d has %d blocks, budget is %d", gi, len(p), B)
		}
		for _, i := range p {
			if i < 0 || i >= n {
				return fmt.Errorf("hyperjoin: block index %d out of range [0,%d)", i, n)
			}
			if seen[i] {
				return fmt.Errorf("hyperjoin: block %d assigned twice", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("hyperjoin: grouping covers %d of %d blocks", count, n)
	}
	return nil
}
