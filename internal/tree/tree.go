package tree

import (
	"encoding/binary"
	"fmt"
	"sort"

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

// NewLeaf returns a single-leaf tree: the state of a table before any
// partitioning, one bucket holding everything.
func NewLeaf(s *schema.Schema) *Tree {
	return &Tree{
		Schema:     s,
		Root:       &Node{Leaf: true, Bucket: 0},
		JoinAttr:   -1,
		nextBucket: 1,
	}
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

// RouteCols routes every physical row of cols at once: dst[i] becomes
// the bucket Route picks for row i. dst must hold cols.FullLen()
// entries; any selection is ignored. The rows descend the tree
// together as an index vector that every node stably partitions into
// its left (cell ≤ cut) and right halves — one loop per node over one
// column instead of one descent per row.
func (t *Tree) RouteCols(cols *tuple.Columns, dst []block.ID) {
	n := cols.FullLen()
	idx := make([]int32, 2*n)
	idx, scratch := idx[:n], idx[n:]
	for i := range idx {
		idx[i] = int32(i)
	}
	routeNode(t.Root, cols, idx, scratch, dst)
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

// Buckets returns all bucket IDs, sorted.
func (t *Tree) Buckets() []block.ID {
	var out []block.ID
	t.Walk(func(n *Node) {
		if n.Leaf {
			out = append(out, n.Bucket)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// PathRange returns, for every bucket, the per-attribute interval implied
// by the root-to-leaf cut points. The adaptive repartitioner uses these to
// estimate block pruning for hypothetical trees without touching data,
// and two-phase trees use the JoinAttr entry as the bucket's join range.
func (t *Tree) PathRange() map[block.ID]map[int]predicate.Range {
	out := make(map[block.ID]map[int]predicate.Range)
	var rec func(n *Node, cur map[int]predicate.Range)
	rec = func(n *Node, cur map[int]predicate.Range) {
		if n == nil {
			return
		}
		if n.Leaf {
			cp := make(map[int]predicate.Range, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			out[n.Bucket] = cp
			return
		}
		get := func() predicate.Range {
			if r, ok := cur[n.Attr]; ok {
				return r
			}
			return predicate.Unbounded()
		}
		saved, had := cur[n.Attr]

		cur[n.Attr] = get().Intersect(predicate.Range{HasHi: true, Hi: n.Cut})
		rec(n.Left, cur)

		if had {
			cur[n.Attr] = saved
		} else {
			delete(cur, n.Attr)
		}
		cur[n.Attr] = get().Intersect(predicate.Range{HasLo: true, Lo: n.Cut, LoOpen: true})
		rec(n.Right, cur)

		if had {
			cur[n.Attr] = saved
		} else {
			delete(cur, n.Attr)
		}
	}
	rec(t.Root, make(map[int]predicate.Range))
	return out
}

// FindLeaf returns the leaf node for a bucket, or nil.
func (t *Tree) FindLeaf(b block.ID) *Node {
	var found *Node
	t.Walk(func(n *Node) {
		if n.Leaf && n.Bucket == b {
			found = n
		}
	})
	return found
}

// Clone returns a deep copy sharing only the schema.
func (t *Tree) Clone() *Tree {
	return &Tree{
		Schema:     t.Schema,
		Root:       cloneNode(t.Root),
		JoinAttr:   t.JoinAttr,
		JoinLevels: t.JoinLevels,
		nextBucket: t.nextBucket,
	}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = cloneNode(n.Left)
	c.Right = cloneNode(n.Right)
	return &c
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

// --- serialization ---

const (
	tagLeaf     = 0
	tagInternal = 1
)

// AppendBinary serializes the tree: header (join attr+1, join levels,
// next bucket) then preorder nodes.
func (t *Tree) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(t.JoinAttr))
	dst = binary.AppendVarint(dst, int64(t.JoinLevels))
	dst = binary.AppendVarint(dst, int64(t.nextBucket))
	return appendNode(dst, t.Root)
}

func appendNode(dst []byte, n *Node) []byte {
	if n.Leaf {
		dst = append(dst, tagLeaf)
		return binary.AppendVarint(dst, int64(n.Bucket))
	}
	dst = append(dst, tagInternal)
	dst = binary.AppendVarint(dst, int64(n.Attr))
	dst = n.Cut.AppendBinary(dst)
	dst = appendNode(dst, n.Left)
	return appendNode(dst, n.Right)
}

// Decode parses a tree serialized by AppendBinary.
func Decode(src []byte, s *schema.Schema) (*Tree, error) {
	pos := 0
	readVarint := func() (int64, error) {
		v, n := binary.Varint(src[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("tree: bad varint at %d", pos)
		}
		pos += n
		return v, nil
	}
	ja, err := readVarint()
	if err != nil {
		return nil, err
	}
	jl, err := readVarint()
	if err != nil {
		return nil, err
	}
	nb, err := readVarint()
	if err != nil {
		return nil, err
	}
	var decodeNode func() (*Node, error)
	decodeNode = func() (*Node, error) {
		if pos >= len(src) {
			return nil, fmt.Errorf("tree: truncated at %d", pos)
		}
		tag := src[pos]
		pos++
		switch tag {
		case tagLeaf:
			b, err := readVarint()
			if err != nil {
				return nil, err
			}
			return &Node{Leaf: true, Bucket: block.ID(b)}, nil
		case tagInternal:
			attr, err := readVarint()
			if err != nil {
				return nil, err
			}
			cut, n, err := value.DecodeValue(src[pos:])
			if err != nil {
				return nil, err
			}
			pos += n
			left, err := decodeNode()
			if err != nil {
				return nil, err
			}
			right, err := decodeNode()
			if err != nil {
				return nil, err
			}
			return &Node{Attr: int(attr), Cut: cut, Left: left, Right: right}, nil
		default:
			return nil, fmt.Errorf("tree: unknown node tag %d at %d", tag, pos-1)
		}
	}
	root, err := decodeNode()
	if err != nil {
		return nil, err
	}
	if pos != len(src) {
		return nil, fmt.Errorf("tree: %d trailing bytes", len(src)-pos)
	}
	return &Tree{Schema: s, Root: root, JoinAttr: int(ja), JoinLevels: int(jl), nextBucket: block.ID(nb)}, nil
}

// AttrLevels counts, per attribute, how many internal nodes split on it —
// the "number of ways the data is partitioned on that attribute" (§3.1),
// used by the upfront partitioner's balancing and reported in Fig. 16
// sweeps.
func (t *Tree) AttrLevels() map[int]int {
	out := make(map[int]int)
	t.Walk(func(n *Node) {
		if !n.Leaf {
			out[n.Attr]++
		}
	})
	return out
}
