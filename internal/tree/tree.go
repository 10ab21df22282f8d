package tree

import (
	"fmt"
	"sync"

	"adaptdb/internal/block"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Node is one tree node. Exactly one of the two shapes is active:
// internal (Left/Right non-nil) or leaf (Leaf true, Bucket valid).
type Node struct {
	// Internal node: split on Attr at Cut; ≤ goes left.
	Attr        int
	Cut         value.Value
	Left, Right *Node

	// Leaf node.
	Leaf   bool
	Bucket block.ID
}

// Tree is a partitioning tree over one table.
type Tree struct {
	Schema *schema.Schema
	Root   *Node

	// JoinAttr is the join attribute injected by two-phase partitioning,
	// or -1 for a selection-only (Amoeba) tree.
	JoinAttr int
	// JoinLevels is how many top levels split on JoinAttr.
	JoinLevels int

	nextBucket block.ID
}

// NewWithRoot builds a tree around a prebuilt node structure. Bucket IDs
// in the structure must be dense in [0, numBuckets).
func NewWithRoot(s *schema.Schema, root *Node, joinAttr, joinLevels int) *Tree {
	t := &Tree{Schema: s, Root: root, JoinAttr: joinAttr, JoinLevels: joinLevels}
	maxB := block.ID(-1)
	t.Walk(func(n *Node) {
		if n.Leaf && n.Bucket > maxB {
			maxB = n.Bucket
		}
	})
	t.nextBucket = maxB + 1
	return t
}

// NextBucket reports the tree's next unused bucket ID; every leaf
// bucket is below it.
func (t *Tree) NextBucket() block.ID { return t.nextBucket }

// Walk visits every node in preorder.
func (t *Tree) Walk(fn func(*Node)) { walk(t.Root, fn) }

func walk(n *Node, fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	walk(n.Left, fn)
	walk(n.Right, fn)
}

// Route returns the bucket a tuple belongs to.
func (t *Tree) Route(tp tuple.Tuple) block.ID {
	n := t.Root
	for !n.Leaf {
		if value.Compare(tp[n.Attr], n.Cut) <= 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Bucket
}

// routeChunk is the fewest rows RouteCols gives one goroutine: a
// smaller chunk costs more to start than it saves.
const routeChunk = 4096

// RouteCols routes every physical row of cols at once: dst[i] becomes
// the bucket Route picks for row i. dst must hold cols.FullLen()
// entries; any selection is ignored. The rows descend the tree
// together as an index vector that every node stably partitions into
// its left (cell ≤ cut) and right halves — one loop per node over one
// column instead of one descent per row. The index vectors live in
// buf, grown when short and returned for the next call to reuse.
//
// With workers > 1 the rows are cut into up to workers contiguous
// chunks of at least routeChunk rows, each descending the tree on its
// own goroutine in its own stretch of the index vectors. A row's bucket
// depends on its cells alone and each chunk writes only its own rows'
// entries of dst, so dst is the same for every split.
func (t *Tree) RouteCols(cols *tuple.Columns, dst []block.ID, buf []int32, workers int) []int32 {
	n := cols.FullLen()
	if cap(buf) < 2*n {
		buf = make([]int32, 2*n)
	}
	idx, scratch := buf[:n], buf[n:2*n]
	route := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx[i] = int32(i)
		}
		routeNode(t.Root, cols, idx[lo:hi], scratch[lo:hi], dst)
	}
	chunks := max(min(workers, n/routeChunk), 1)
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			route(n*c/chunks, n*(c+1)/chunks)
		}()
	}
	route(0, n/chunks)
	wg.Wait()
	return buf
}

// routeNode routes the rows idx under node n; scratch is as long as idx.
func routeNode(n *Node, cols *tuple.Columns, idx, scratch []int32, dst []block.ID) {
	if len(idx) == 0 {
		return
	}
	if n.Leaf {
		for _, i := range idx {
			dst[i] = n.Bucket
		}
		return
	}
	l := splitLE(cols.Col(n.Attr), n.Cut, idx, scratch)
	routeNode(n.Left, cols, idx[:l], scratch[:l], dst)
	routeNode(n.Right, cols, idx[l:], scratch[l:], dst)
}

// splitLE stably reorders idx so that the rows whose cell in v is at or
// below cut come first, and returns their count. An all-valid int-class
// or string column cut by a value of its own kind compares payloads in
// a typed loop; every other cell — boxed, NULL-bearing, float, or of a
// kind other than the cut's — goes through ColVec.CompareValue, which
// keeps value.Compare's order (NULL first, NaN first, kinds ordered).
func splitLE(v *tuple.ColVec, cut value.Value, idx, scratch []int32) int {
	var l, r int
	switch k := v.Kind(); {
	case v.Valid() == nil && k == cut.K && value.IntClass(k):
		l, r = splitTyped(v.Ints(), cut.I, idx, scratch)
	case v.Valid() == nil && k == cut.K && k == value.String:
		l, r = splitTyped(v.Strs(), cut.S, idx, scratch)
	default:
		for _, i := range idx {
			if v.CompareValue(int(i), cut) <= 0 {
				idx[l] = i
				l++
			} else {
				scratch[r] = i
				r++
			}
		}
	}
	copy(idx[l:], scratch[:r])
	return l
}

// splitTyped is splitLE's typed loop: rows with xs[i] ≤ cut are packed
// at the front of idx (never past the read position) and the others
// into scratch, both in order.
func splitTyped[T int64 | string](xs []T, cut T, idx, scratch []int32) (l, r int) {
	for _, i := range idx {
		if xs[i] <= cut {
			idx[l] = i
			l++
		} else {
			scratch[r] = i
			r++
		}
	}
	return l, r
}

// NumBuckets returns the number of leaves.
func (t *Tree) NumBuckets() int {
	c := 0
	t.Walk(func(n *Node) {
		if n.Leaf {
			c++
		}
	})
	return c
}

// Depth returns the maximum leaf depth (root = depth 0 leaf).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Lookup returns the buckets that may contain tuples satisfying the
// conjunction — the paper's lookup(T, q) (§4.2). Pruning is sound: any
// bucket that could hold a matching tuple is always included.
func (t *Tree) Lookup(preds []predicate.Predicate) []block.ID {
	var byCol []*predicate.Range
	for col, r := range predicate.ColumnRanges(preds) {
		for len(byCol) <= col {
			byCol = append(byCol, nil)
		}
		byCol[col] = &r
	}
	mark := make([]bool, t.nextBucket)
	t.MarkLookup(byCol, mark)
	var out []block.ID
	for b, m := range mark {
		if m {
			out = append(out, block.ID(b))
		}
	}
	return out
}

// MarkLookup is Lookup over a conjunction already folded into one range
// per column (byCol[c] is nil, or c is past its end, when column c is
// unconstrained): it sets mark[b] for every bucket Lookup returns. mark
// must hold NextBucket entries. A caller that walks mark in index order
// gets Lookup's sorted answer without a sort or a map probe per node.
func (t *Tree) MarkLookup(byCol []*predicate.Range, mark []bool) {
	markLookup(t.Root, byCol, mark)
}

func markLookup(n *Node, byCol []*predicate.Range, mark []bool) {
	if n == nil {
		return
	}
	if n.Leaf {
		mark[n.Bucket] = true
		return
	}
	goLeft, goRight := true, true
	if n.Attr < len(byCol) && byCol[n.Attr] != nil {
		// Left holds Attr ∈ (-inf, Cut]; right holds (Cut, +inf). This is
		// r.Overlaps of each side's interval, unfolded: r misses the left
		// side when its lower bound lies past Cut, the right side when its
		// upper bound is at or below Cut.
		r := byCol[n.Attr]
		if r.Empty() {
			return
		}
		if r.HasLo {
			c := value.Compare(n.Cut, r.Lo)
			goLeft = c > 0 || (c == 0 && !r.LoOpen)
		}
		goRight = !r.HasHi || value.Compare(r.Hi, n.Cut) > 0
	}
	if goLeft {
		markLookup(n.Left, byCol, mark)
	}
	if goRight {
		markLookup(n.Right, byCol, mark)
	}
}

// String renders a compact s-expression of the tree for debugging.
func (t *Tree) String() string { return nodeString(t.Root, t.Schema) }

func nodeString(n *Node, s *schema.Schema) string {
	if n == nil {
		return "nil"
	}
	if n.Leaf {
		return fmt.Sprintf("b%d", n.Bucket)
	}
	name := fmt.Sprintf("col%d", n.Attr)
	if s != nil && n.Attr < s.NumCols() {
		name = s.Name(n.Attr)
	}
	return fmt.Sprintf("(%s<=%v %s %s)", name, n.Cut, nodeString(n.Left, s), nodeString(n.Right, s))
}

// AttrLevels counts, per attribute, how many internal nodes split on it —
// the "number of ways the data is partitioned on that attribute" (§3.1).
func (t *Tree) AttrLevels() map[int]int {
	out := make(map[int]int)
	t.Walk(func(n *Node) {
		if !n.Leaf {
			out[n.Attr]++
		}
	})
	return out
}
