package hyperjoin

// BottomUp is the paper's practical algorithm (Fig. 6): grow one group at
// a time, repeatedly merging in the remaining block r_i with the smallest
// δ(r_i ∨ ṽ(P)); close the group when it reaches B blocks (or blocks run
// out) and start a new one. A straightforward implementation is O(n²)
// scans of the remaining blocks, as the paper notes.
func BottomUp(V []BitVec, B int) Grouping {
	n := len(V)
	if n == 0 {
		return nil
	}
	if B < 1 {
		B = 1
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var out Grouping
	var cur []int
	width := len(V[0]) * 64
	union := NewBitVec(width)
	for len(remaining) > 0 {
		// argmin over remaining of δ(v_i ∨ union); ties break to the
		// lowest index for determinism.
		bestPos, bestCost := 0, -1
		for pos, i := range remaining {
			c := union.OrPopCount(V[i])
			if bestCost == -1 || c < bestCost {
				bestPos, bestCost = pos, c
			}
		}
		pick := remaining[bestPos]
		remaining[bestPos] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		cur = append(cur, pick)
		union.OrInto(V[pick])
		if len(cur) == B || len(remaining) == 0 {
			out = append(out, cur)
			cur = nil
			union = NewBitVec(width)
		}
	}
	return out
}

// GreedyBestSeed approximates the Fig. 5 formulation ("generate P from
// min(B,|R|) blocks with smallest δ(ṽ(P))"): since choosing that best
// group is itself NP-hard (§4.1.4), each round tries every remaining
// block as a seed, grows a candidate group greedily to B, and keeps the
// cheapest candidate. O(n³) overall — slower than BottomUp but closer to
// per-round optimal; the experiments compare both.
func GreedyBestSeed(V []BitVec, B int) Grouping {
	n := len(V)
	if n == 0 {
		return nil
	}
	if B < 1 {
		B = 1
	}
	remaining := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		remaining[i] = true
	}
	width := len(V[0]) * 64
	var out Grouping
	for len(remaining) > 0 {
		size := B
		if len(remaining) < size {
			size = len(remaining)
		}
		bestGroup := []int(nil)
		bestCost := -1
		for seed := 0; seed < n; seed++ {
			if !remaining[seed] {
				continue
			}
			group := []int{seed}
			union := V[seed].Clone()
			used := map[int]bool{seed: true}
			for len(group) < size {
				pick, pickCost := -1, -1
				for cand := 0; cand < n; cand++ {
					if !remaining[cand] || used[cand] {
						continue
					}
					c := union.OrPopCount(V[cand])
					if pickCost == -1 || c < pickCost {
						pick, pickCost = cand, c
					}
				}
				if pick == -1 {
					break
				}
				group = append(group, pick)
				used[pick] = true
				union.OrInto(V[pick])
			}
			if c := union.PopCount(); bestCost == -1 || c < bestCost {
				bestGroup, bestCost = group, c
			}
		}
		for _, i := range bestGroup {
			delete(remaining, i)
		}
		out = append(out, bestGroup)
		_ = width
	}
	return out
}

// FirstFit is the trivial baseline: consecutive chunks of B blocks in
// index order. It models what a system gets with no grouping
// intelligence at all (Example 1's "bad" choice arises this way for
// unfortunate orders).
func FirstFit(V []BitVec, B int) Grouping {
	n := len(V)
	if n == 0 {
		return nil
	}
	if B < 1 {
		B = 1
	}
	var out Grouping
	for lo := 0; lo < n; lo += B {
		hi := lo + B
		if hi > n {
			hi = n
		}
		g := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			g = append(g, i)
		}
		out = append(out, g)
	}
	return out
}
