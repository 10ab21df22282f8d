// Columnar row storage: typed vectors, validity bitmaps, selection
// vectors. One layout end to end: it is how a stored block holds its
// rows (block.Block), the payload of the executor's columnar batches,
// the vectorized join's build-side store, and — through AppendFrame /
// DecodeFrame — a spill run and a wire frame. Rows enter it once, at
// load (AppendRows); from there scans view them in place (AliasRange),
// joins and migration move them with range copies and gathers
// (AppendRange, AppendGather), and everything compares cells in place
// (CompareValue), never re-boxing them.
//
// A column is stored by kind class: Int/Date/Bool payloads in a flat
// []int64, Float in []float64, String as a flat []string of headers.
// NULLs live in a per-column validity bitmap that is only materialized
// once the first null arrives, so the common all-valid column costs
// nothing. Columns whose values mix kinds (legal in this engine's
// dynamically typed tuples, rare in practice) demote to a boxed
// []value.Value fallback and keep working at the old speed.
//
// The win over []tuple.Tuple is that the hot loops — hashing a key
// column, comparing join keys, appending join output — run over flat
// memory: numeric columns are pointer-free (no write barriers when
// appending, nothing for the GC to traverse, one cache line holds
// eight keys), and string columns move 16-byte headers instead of
// 40-byte boxed Values. String payload bytes are never copied: Go
// strings are immutable and GC-managed, so header aliasing is safe
// across batch recycling — the same property the row path's
// slice-of-Values storage relies on.
//
// A selection vector (Sel) narrows the live rows without moving data:
// filters refine it in place, and every consumer iterates selected
// indices. Physical row indices (as taken by Value, RowTo, hash and
// gather methods) always address the unselected storage.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"adaptdb/internal/value"
)

// ColVec is one column of a Columns: a typed vector plus optional
// validity bitmap. The zero ColVec is an empty, kindless column.
type ColVec struct {
	kind   value.Kind // storage kind; value.Null until the first non-null
	n      int
	ints   []int64
	floats []float64
	strs   []string
	boxed  []value.Value // mixed-kind fallback; authoritative when non-nil
	valid  []uint64      // validity bitmap; nil = every row valid

	// res is the Reserve hint: typed vectors allocate at least this
	// capacity when the column adopts its kind.
	res int
}

// Kind reports the column's storage kind: value.Null while the column
// is empty/all-null or boxed (see Boxed).
func (v *ColVec) Kind() value.Kind {
	if v.boxed != nil {
		return value.Null
	}
	return v.kind
}

// Ints exposes the flat payload of an Int/Date/Bool column.
func (v *ColVec) Ints() []int64 { return v.ints }

// Floats exposes the flat payload of a Float column.
func (v *ColVec) Floats() []float64 { return v.floats }

// Strs exposes the flat header payload of a String column.
func (v *ColVec) Strs() []string { return v.strs }

// Str returns row i's string payload (a shared header, never a copy).
func (v *ColVec) Str(i int) string { return v.strs[i] }

// Boxed exposes the mixed-kind fallback storage, nil for typed columns.
func (v *ColVec) Boxed() []value.Value { return v.boxed }

// Valid exposes the validity bitmap; nil means every row is valid.
func (v *ColVec) Valid() []uint64 { return v.valid }

// IsValid reports whether row i holds a non-null value.
func (v *ColVec) IsValid(i int) bool {
	if v.boxed != nil {
		return !v.boxed[i].IsNull()
	}
	return v.valid == nil || v.valid[i>>6]>>(uint(i)&63)&1 == 1
}

// noteValid records the validity of the row being appended (index v.n).
// The bitmap materializes on the first null; until then it is nil.
func (v *ColVec) noteValid(ok bool) {
	i := v.n
	if v.valid == nil {
		if ok {
			return
		}
		// Materialize: all prior rows are valid.
		words := i>>6 + 1
		v.valid = append(v.valid[:0], make([]uint64, words)...)
		for w := 0; w < i>>6; w++ {
			v.valid[w] = ^uint64(0)
		}
		if r := i & 63; r > 0 {
			v.valid[i>>6] = 1<<uint(r) - 1
		}
		return // bit i stays 0 (null)
	}
	for len(v.valid) <= i>>6 {
		v.valid = append(v.valid, 0)
	}
	if ok {
		v.valid[i>>6] |= 1 << (uint(i) & 63)
	}
}

// adopt fixes the column's kind on its first non-null value, backfilling
// zero payloads for any leading nulls and honoring the Reserve hint.
func (v *ColVec) adopt(k value.Kind) {
	v.kind = k
	capHint := v.res
	if capHint < v.n {
		capHint = v.n
	}
	switch {
	case value.IntClass(k):
		v.ints = growZero(v.ints, v.n, capHint)
	case k == value.Float:
		v.floats = growZero(v.floats, v.n, capHint)
	case k == value.String:
		v.strs = growZero(v.strs, v.n, capHint)
	default:
		v.demote()
	}
}

// growZero returns s resized to n zeroed elements with capacity ≥ c,
// reusing the backing array when it is big enough.
func growZero[T int64 | float64 | string](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// demote converts the column to boxed storage — the escape hatch for
// mixed-kind columns. Existing rows are reconstructed.
func (v *ColVec) demote() {
	boxed := make([]value.Value, v.n)
	for i := 0; i < v.n; i++ {
		boxed[i] = v.value(i)
	}
	v.boxed = boxed
	v.ints, v.floats, v.strs, v.valid = nil, nil, nil, nil
}

// append adds one value to the column.
func (v *ColVec) append(val value.Value) {
	if v.boxed != nil {
		v.boxed = append(v.boxed, val)
		v.n++
		return
	}
	if val.K == value.Null {
		v.appendNull()
		return
	}
	if v.kind == value.Null {
		v.adopt(val.K)
		if v.boxed != nil {
			v.boxed = append(v.boxed, val)
			v.n++
			return
		}
	} else if val.K != v.kind {
		v.demote()
		v.boxed = append(v.boxed, val)
		v.n++
		return
	}
	v.noteValid(true)
	switch {
	case value.IntClass(v.kind):
		v.ints = append(v.ints, val.I)
	case v.kind == value.Float:
		v.floats = append(v.floats, val.F)
	default:
		v.strs = append(v.strs, val.S)
	}
	v.n++
}

// appendNull adds a NULL to a typed (non-boxed) column.
func (v *ColVec) appendNull() {
	v.noteValid(false)
	// Keep the payload vector aligned when the kind is known; before
	// adoption there is nothing to pad (adopt backfills).
	switch {
	case value.IntClass(v.kind):
		v.ints = append(v.ints, 0)
	case v.kind == value.Float:
		v.floats = append(v.floats, 0)
	case v.kind == value.String:
		v.strs = append(v.strs, "")
	}
	v.n++
}

// value reconstructs row i as a boxed Value. String payloads are shared
// headers — immutable and GC-managed, so the result stays valid after
// the column is reset, the safety property every row-view adapter
// relies on.
func (v *ColVec) value(i int) value.Value {
	if v.boxed != nil {
		return v.boxed[i]
	}
	if !v.IsValid(i) {
		return value.Value{}
	}
	switch {
	case value.IntClass(v.kind):
		return value.Value{K: v.kind, I: v.ints[i]}
	case v.kind == value.Float:
		return value.Value{K: value.Float, F: v.floats[i]}
	default:
		return value.Value{K: value.String, S: v.strs[i]}
	}
}

// appendFrom appends row i of src — the single-row gather primitive.
// Typed same-kind columns copy the flat payload; anything else falls
// back to boxed reconstruction.
func (v *ColVec) appendFrom(src *ColVec, i int) {
	if v.boxed == nil && src.boxed == nil && src.kind == v.kind && v.kind != value.Null {
		ok := src.IsValid(i)
		if ok || v.valid != nil || src.valid != nil {
			v.noteValid(ok)
		}
		switch {
		case value.IntClass(v.kind):
			v.ints = append(v.ints, src.ints[i])
		case v.kind == value.Float:
			v.floats = append(v.floats, src.floats[i])
		default:
			if ok {
				v.strs = append(v.strs, src.strs[i])
			} else {
				v.strs = append(v.strs, "")
			}
		}
		v.n++
		return
	}
	v.append(src.value(i))
}

// appendGather appends src rows idxs in order. The monomorphic fast
// paths keep join-output gathering free of per-value branching and grow
// the destination once per call.
func (v *ColVec) appendGather(src *ColVec, idxs []int32) {
	if v.boxed == nil && src.boxed == nil && src.valid == nil && v.valid == nil {
		if v.kind == value.Null && src.kind != value.Null && v.n == 0 {
			v.adopt(src.kind)
		}
		if src.kind == v.kind && v.kind != value.Null {
			switch {
			case value.IntClass(v.kind):
				v.ints = gather(v.ints, src.ints, idxs)
			case v.kind == value.Float:
				v.floats = gather(v.floats, src.floats, idxs)
			default:
				v.strs = gather(v.strs, src.strs, idxs)
			}
			v.n += len(idxs)
			return
		}
	}
	for _, i := range idxs {
		v.appendFrom(src, int(i))
	}
}

// gather appends src[i] for each i in idxs to dst: one grow, then
// writes by index. Every slot it exposes is written, so a string
// vector still holds nothing non-empty beyond its length (see reset).
func gather[T int64 | float64 | string](dst, src []T, idxs []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(idxs))[:n+len(idxs)]
	out := dst[n:]
	for j, i := range idxs {
		out[j] = src[i]
	}
	return dst
}

// appendRange bulk-appends src rows [from, to). Same-kind all-valid
// typed columns concatenate flat payloads; otherwise it degrades to
// per-row appends.
func (v *ColVec) appendRange(src *ColVec, from, to int) {
	if from >= to {
		return
	}
	if v.boxed == nil && src.boxed == nil && src.valid == nil && v.valid == nil {
		if v.kind == value.Null && src.kind != value.Null && v.n == 0 {
			v.adopt(src.kind)
		}
		if src.kind == v.kind && v.kind != value.Null {
			switch {
			case value.IntClass(v.kind):
				v.ints = append(v.ints, src.ints[from:to]...)
			case v.kind == value.Float:
				v.floats = append(v.floats, src.floats[from:to]...)
			default:
				v.strs = append(v.strs, src.strs[from:to]...)
			}
			v.n += to - from
			return
		}
	}
	for i := from; i < to; i++ {
		v.appendFrom(src, i)
	}
}

// CompareValue orders row i's cell against x exactly as value.Compare
// orders the boxed cell against x — NULL first, then by Kind, then by
// payload with NaN-first floats — without boxing the cell. It is the
// one cell-vs-constant comparison: the predicate kernel's fallback and
// the partitioning tree's columnar route both stand on it.
func (v *ColVec) CompareValue(i int, x value.Value) int {
	if v.boxed != nil {
		return value.Compare(v.boxed[i], x)
	}
	k := v.kind
	if !v.IsValid(i) {
		k = value.Null
	}
	if k != x.K {
		switch {
		case k == value.Null:
			return -1
		case x.K == value.Null:
			return 1
		case k < x.K:
			return -1
		}
		return 1
	}
	switch {
	case value.IntClass(k):
		switch a := v.ints[i]; {
		case a < x.I:
			return -1
		case a > x.I:
			return 1
		}
	case k == value.Float:
		return value.CompareFloat(v.floats[i], x.F)
	case k == value.String:
		switch a := v.strs[i]; {
		case a < x.S:
			return -1
		case a > x.S:
			return 1
		}
	}
	return 0
}

// reset empties the column for reuse, keeping payload capacity. String
// headers are cleared so stale ones cannot pin their payloads across
// pool dwell time (the GC scans a backing array's whole allocation).
// Clearing the live prefix is enough: every write to strs is an append
// onto a vector that was make-zeroed or reset, so nothing non-empty
// ever sits beyond len — TestResetLeavesNoStaleHeaders pins that.
func (v *ColVec) reset() {
	v.kind = value.Null
	v.n = 0
	v.ints = v.ints[:0]
	v.floats = v.floats[:0]
	if v.strs != nil {
		clear(v.strs)
		v.strs = v.strs[:0]
	}
	v.boxed = nil
	v.valid = nil
	v.res = 0
}

// Columns is a columnar row set: one ColVec per column plus an optional
// selection vector. Not safe for concurrent mutation; sealed instances
// (join build stores) may be read concurrently.
type Columns struct {
	vecs   []ColVec
	n      int
	sel    []int32
	selB   []int32  // recycled backing for FilterSel
	validB []uint64 // recycled backing for an alias's copied validity words
}

// NewColumns returns an empty columnar row set with ncols columns.
func NewColumns(ncols int) *Columns {
	return &Columns{vecs: make([]ColVec, ncols)}
}

// Reset empties the set and re-shapes it to ncols columns, keeping
// backing capacity.
func (c *Columns) Reset(ncols int) {
	if cap(c.vecs) < ncols {
		c.vecs = append(c.vecs[:cap(c.vecs)], make([]ColVec, ncols-cap(c.vecs))...)
	}
	c.vecs = c.vecs[:ncols]
	for i := range c.vecs {
		c.vecs[i].reset()
	}
	c.n = 0
	c.sel = nil
}

// NumCols returns the column count.
func (c *Columns) NumCols() int { return len(c.vecs) }

// Reserve hints the expected row count: typed vectors allocate at least
// this capacity when they adopt their kind, so a pre-sized build store
// never regrows mid-merge.
func (c *Columns) Reserve(rows int) {
	for i := range c.vecs {
		c.vecs[i].res = rows
	}
}

// Grow makes every vector able to hold rows rows, so appends up to that
// count write in place: a vector with less capacity is reallocated to
// exactly rows and its cells copied, and a column still without a kind
// takes rows as its Reserve hint. Grow never shrinks.
func (c *Columns) Grow(rows int) {
	for i := range c.vecs {
		v := &c.vecs[i]
		switch {
		case v.boxed != nil:
			v.boxed = growTo(v.boxed, rows)
		case value.IntClass(v.kind):
			v.ints = growTo(v.ints, rows)
		case v.kind == value.Float:
			v.floats = growTo(v.floats, rows)
		case v.kind == value.String:
			v.strs = growTo(v.strs, rows)
		default:
			v.res = max(v.res, rows)
		}
		if v.valid != nil {
			v.valid = growTo(v.valid, (rows+63)>>6)
		}
	}
}

// Cap returns the row count the set holds before an append reallocates
// a vector: the smallest capacity over its columns, counting a column
// without a kind at its Reserve hint.
func (c *Columns) Cap() int {
	n := math.MaxInt
	for i := range c.vecs {
		v := &c.vecs[i]
		var k int
		switch {
		case v.boxed != nil:
			k = cap(v.boxed)
		case value.IntClass(v.kind):
			k = cap(v.ints)
		case v.kind == value.Float:
			k = cap(v.floats)
		case v.kind == value.String:
			k = cap(v.strs)
		default:
			k = v.res
		}
		if v.valid != nil {
			k = min(k, cap(v.valid)<<6)
		}
		n = min(n, k)
	}
	return n
}

// growTo returns s with capacity at least c: s itself when it has it,
// else a copy in a new array of exactly c, zero beyond len.
func growTo[T any](s []T, c int) []T {
	if cap(s) >= c {
		return s
	}
	t := make([]T, len(s), c)
	copy(t, s)
	return t
}

// FullLen returns the physical row count, ignoring any selection.
func (c *Columns) FullLen() int { return c.n }

// Len returns the live row count: the selection's length when one is
// set, else the physical count.
func (c *Columns) Len() int {
	if c.sel != nil {
		return len(c.sel)
	}
	return c.n
}

// Sel returns the selection vector (physical indices of live rows), nil
// when every row is live.
func (c *Columns) Sel() []int32 { return c.sel }

// SetSel installs a selection vector. The slice is aliased, not copied.
func (c *Columns) SetSel(sel []int32) { c.sel = sel }

// FilterSel refines the selection in place: keep is called with each
// live physical row index, and rows it rejects leave the selection.
// This is how a filter narrows a columnar batch without moving a byte.
func (c *Columns) FilterSel(keep func(phys int) bool) {
	c.NarrowSel(func(sel, out []int32) []int32 {
		if sel != nil {
			for _, i := range sel {
				if keep(int(i)) {
					out = append(out, i)
				}
			}
			return out
		}
		for i := 0; i < c.n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	})
}

// NarrowSel replaces the selection with narrow(sel, buf) — the batch
// form of FilterSel for kernels that test a whole column per call
// (predicate.FilterSel). sel is the current selection (nil = every
// row), buf the set's recycled backing, emptied; when sel was itself
// produced here it is that same array, so narrow must never write past
// the position it has read (a filter's survivors never do).
func (c *Columns) NarrowSel(narrow func(sel, buf []int32) []int32) {
	out := narrow(c.sel, c.selB[:0])
	if out == nil {
		// Zero survivors on a fresh backing: the selection must still be
		// non-nil — nil means "every row live", not "no rows".
		out = make([]int32, 0, 1)
	}
	c.selB = out[:0]
	c.sel = out
}

// View returns a read-only alias of the set's columns cols, in that
// order (nil: every column), under a different selection: it shares
// every vector's storage with c, so a reader can narrow a set it does
// not own (a stored block) without touching it. Physical row indexes
// are c's.
func (c *Columns) View(cols []int, sel []int32) *Columns {
	v := &Columns{vecs: c.vecs, n: c.n, sel: sel}
	if cols != nil {
		v.vecs = make([]ColVec, len(cols))
		for i, ci := range cols {
			v.vecs[i] = c.vecs[ci]
		}
	}
	return v
}

// KeepCols narrows the set to its columns cols, in that order, moving
// vector headers only: no cell is copied, and the row count and
// selection stay. cols must not name a column twice. The headers of the
// dropped columns are cleared, so they pin nothing. For a set whose
// vectors it does not own (an AliasRange view): a set that owns its
// storage would lose the dropped vectors' backing (KeepOwnCols).
func (c *Columns) KeepCols(cols []int) { clear(c.moveCols(cols)) }

// KeepOwnCols is KeepCols for a set that owns its vectors (a pooled
// batch): the dropped vectors are emptied as Reset empties them and
// kept behind the set's length, so a later Reset to a wider shape takes
// their storage back.
func (c *Columns) KeepOwnCols(cols []int) {
	dropped := c.moveCols(cols)
	for i := range dropped {
		dropped[i].reset()
	}
}

// moveCols moves the vectors of columns cols to the front, in that
// order, by swaps, and truncates the set to them. It returns the other
// vectors, which now sit behind the set's length.
func (c *Columns) moveCols(cols []int) []ColVec {
	n := len(c.vecs)
	// at[j] is the slot original column j sits in, orig[s] the original
	// column slot s holds. Slots before i hold cols[:i], so cols[i], named
	// once, sits at i or behind it.
	var buf [64]int
	at, orig := buf[0:0:32], buf[32:32]
	if n > 32 {
		at, orig = make([]int, 0, n), make([]int, 0, n)
	}
	for j := 0; j < n; j++ {
		at, orig = append(at, j), append(orig, j)
	}
	for i, ci := range cols {
		s := at[ci]
		if s == i {
			continue
		}
		c.vecs[i], c.vecs[s] = c.vecs[s], c.vecs[i]
		oi := orig[i]
		orig[i], orig[s] = ci, oi
		at[ci], at[oi] = i, s
	}
	c.vecs = c.vecs[:len(cols)]
	return c.vecs[len(cols):n]
}

// Recycle empties the set for reuse as another store and returns the
// row count it then holds before an append reallocates: its Cap before
// emptying. Each column keeps only the payload vector of the kind it
// held, and columns behind the set's length are dropped, so a set
// recycled across stores of other shapes never carries more than one
// vector per column. String headers are cleared as Reset clears them,
// so a recycled set pins no payload. A set with no columns returns 0.
func (c *Columns) Recycle() int {
	if len(c.vecs) == 0 {
		return 0
	}
	n := c.Cap()
	for i := range c.vecs {
		v := &c.vecs[i]
		switch {
		case v.boxed != nil:
		case value.IntClass(v.kind):
			v.floats, v.strs = nil, nil
		case v.kind == value.Float:
			v.ints, v.strs = nil, nil
		case v.kind == value.String:
			v.ints, v.floats = nil, nil
		}
	}
	clear(c.vecs[len(c.vecs):cap(c.vecs)])
	c.Reset(len(c.vecs))
	return n
}

// AliasRange makes the set a read-only view of src's physical rows
// [from, to), with no selection: each vector is re-sliced as
// v[from:to:to], so no cell is copied, and an append to src lands past
// the view or reallocates — the view never sees it. Validity words are
// the exception: they are copied into the set's own buffer, because an
// append to src may OR a bit into the word the view's last row shares.
// from must be a multiple of 64 so those words copy whole. The view is
// valid for as long as src's rows below to are never rewritten (stored
// blocks are append-only). An append to the set reallocates the vectors
// it grows, so it never writes into src; the set must not be Reset until
// DropAlias, since Reset clears string headers in src's storage.
func (c *Columns) AliasRange(src *Columns, from, to int) {
	if from&63 != 0 {
		panic(fmt.Sprintf("tuple: AliasRange from %d is not a multiple of 64", from))
	}
	ncols := len(src.vecs)
	if cap(c.vecs) < ncols {
		c.vecs = make([]ColVec, ncols)
	}
	c.vecs = c.vecs[:ncols]
	w0, w1 := from>>6, (to+63)>>6
	words := 0
	for ci := range src.vecs {
		if src.vecs[ci].valid != nil {
			words += w1 - w0
		}
	}
	vb := slices.Grow(c.validB[:0], words)
	for ci := range src.vecs {
		s, v := &src.vecs[ci], &c.vecs[ci]
		*v = ColVec{kind: s.kind, n: to - from}
		switch {
		case s.boxed != nil:
			v.boxed = s.boxed[from:to:to]
		case value.IntClass(s.kind):
			v.ints = s.ints[from:to:to]
		case s.kind == value.Float:
			v.floats = s.floats[from:to:to]
		case s.kind == value.String:
			v.strs = s.strs[from:to:to]
		}
		if s.valid != nil {
			k := len(vb)
			vb = append(vb, s.valid[w0:w1]...)
			v.valid = vb[k:len(vb):len(vb)]
		}
	}
	c.validB = vb
	c.n = to - from
	c.sel = nil
}

// DropAlias empties a set made by AliasRange, zeroing its vector
// headers so it pins nothing of its source while it waits for reuse.
// Its own selection and validity buffers are kept.
func (c *Columns) DropAlias() {
	clear(c.vecs)
	c.vecs = c.vecs[:0]
	c.n = 0
	c.sel = nil
}

// Col returns column i's vector.
func (c *Columns) Col(i int) *ColVec { return &c.vecs[i] }

// IsNull reports whether physical row i's column col holds NULL.
func (c *Columns) IsNull(col, i int) bool { return !c.vecs[col].IsValid(i) }

// Value reconstructs one cell as a boxed Value (deep-copied strings).
func (c *Columns) Value(col, i int) value.Value { return c.vecs[col].value(i) }

// AppendRow appends one row. The tuple's arity must match NumCols.
func (c *Columns) AppendRow(t Tuple) {
	for i := range c.vecs {
		c.vecs[i].append(t[i])
	}
	c.n++
}

// AppendRows bulk-transposes row-major tuples into the columns — the
// scan hot path. Unlike per-row AppendRow, each column is filled by one
// tight loop with the kind dispatch hoisted out of the per-value work:
// the common homogeneous column costs one predictable branch and one
// append per value.
func (c *Columns) AppendRows(rows []Tuple) {
	for ci := range c.vecs {
		c.vecs[ci].appendColumn(rows, ci)
	}
	c.n += len(rows)
}

// appendColumn appends rows[*][ci] with per-kind monomorphic loops.
func (v *ColVec) appendColumn(rows []Tuple, ci int) {
	i := 0
	for v.boxed == nil && v.kind == value.Null {
		// Skip leading nulls, then adopt the first real kind and fall
		// through to its loop (or to boxed if adoption demoted).
		if i == len(rows) {
			return
		}
		if k := rows[i][ci].K; k != value.Null {
			v.adopt(k)
			break
		}
		v.noteValid(false)
		v.n++
		i++
	}
	if v.boxed != nil {
		v.appendColumnBoxed(rows, ci, i)
		return
	}
	// The loops below take each cell by pointer and read only the fields
	// the column kind needs — copying the whole 40-byte Value would drag
	// the string-header half of the struct through the cache even for
	// numeric columns.
	switch k := v.kind; {
	case value.IntClass(k):
		for ; i < len(rows); i++ {
			val := &rows[i][ci]
			if val.K != k {
				if val.K != value.Null {
					v.appendColumnBoxed(rows, ci, i)
					return
				}
				v.noteValid(false)
				v.ints = append(v.ints, 0)
				v.n++
				continue
			}
			if v.valid != nil {
				v.noteValid(true)
			}
			v.ints = append(v.ints, val.I)
			v.n++
		}
	case k == value.Float:
		for ; i < len(rows); i++ {
			val := &rows[i][ci]
			if val.K != value.Float {
				if val.K != value.Null {
					v.appendColumnBoxed(rows, ci, i)
					return
				}
				v.noteValid(false)
				v.floats = append(v.floats, 0)
				v.n++
				continue
			}
			if v.valid != nil {
				v.noteValid(true)
			}
			v.floats = append(v.floats, val.F)
			v.n++
		}
	default: // String
		for ; i < len(rows); i++ {
			val := &rows[i][ci]
			if val.K != value.String {
				if val.K != value.Null {
					v.appendColumnBoxed(rows, ci, i)
					return
				}
				v.noteValid(false)
				v.strs = append(v.strs, "")
				v.n++
				continue
			}
			if v.valid != nil {
				v.noteValid(true)
			}
			v.strs = append(v.strs, val.S)
			v.n++
		}
	}
}

// appendColumnBoxed finishes appendColumn's tail after a mixed-kind
// value forced demotion.
func (v *ColVec) appendColumnBoxed(rows []Tuple, ci, i int) {
	if v.boxed == nil {
		v.demote()
	}
	for ; i < len(rows); i++ {
		v.boxed = append(v.boxed, rows[i][ci])
		v.n++
	}
}

// AppendColumns appends every live row of src. Layouts must match.
func (c *Columns) AppendColumns(src *Columns) {
	if src.sel != nil {
		c.AppendGather(src, src.sel)
		return
	}
	c.AppendRange(src, 0, src.n)
}

// AppendRange appends src's physical rows [from, to), ignoring any
// selection — flat memmoves for typed all-valid columns. Layouts must
// match.
func (c *Columns) AppendRange(src *Columns, from, to int) {
	for ci := range c.vecs {
		c.vecs[ci].appendRange(&src.vecs[ci], from, to)
	}
	c.n += to - from
}

// AppendGather appends src's physical rows idxs, in order — one
// monomorphic gather loop per column. Layouts must match.
func (c *Columns) AppendGather(src *Columns, idxs []int32) {
	for ci := range c.vecs {
		c.vecs[ci].appendGather(&src.vecs[ci], idxs)
	}
	c.n += len(idxs)
}

// AppendColumnGather appends src's column srcCol at physical rows idxs
// onto this set's column dst. It does not advance the row count — the
// caller gathers every column, then calls AddRows once.
func (c *Columns) AppendColumnGather(dst int, src *Columns, srcCol int, idxs []int32) {
	c.vecs[dst].appendGather(&src.vecs[srcCol], idxs)
}

// AddRows advances the row count after per-column gathers. Every column
// must have been extended by exactly k rows.
func (c *Columns) AddRows(k int) { c.n += k }

// RowTo materializes physical row i into dst (reused across calls).
// String cells are deep copies: the returned tuple does not alias the
// column arena and survives a Reset — what spill writers and row-view
// adapters require.
func (c *Columns) RowTo(dst Tuple, i int) Tuple {
	dst = dst[:0]
	for ci := range c.vecs {
		dst = append(dst, c.vecs[ci].value(i))
	}
	return dst
}

// AppendRowBinary appends physical row i's encoding to dst, byte-for-
// byte identical to RowTo(nil, i).AppendBinary(dst) — checksum and wire
// paths walk columns without boxing a single value.
func (c *Columns) AppendRowBinary(dst []byte, i int) []byte {
	for ci := range c.vecs {
		v := &c.vecs[ci]
		if v.boxed != nil {
			dst = v.boxed[i].AppendBinary(dst)
			continue
		}
		if !v.IsValid(i) {
			dst = append(dst, byte(value.Null))
			continue
		}
		dst = append(dst, byte(v.kind))
		switch {
		case value.IntClass(v.kind):
			dst = binary.AppendVarint(dst, v.ints[i])
		case v.kind == value.Float:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.floats[i]))
			dst = append(dst, buf[:]...)
		default:
			s := v.strs[i]
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// AppendFrame encodes every physical row of the set as one run-file
// frame, byte-identical to AppendFrame on the materialized rows — the
// run frame format is column-major, so a columnar spill buffer encodes
// straight from its vectors with the kind dispatch hoisted per column.
// Selections are ignored: spill buffers hold exactly the rows to write.
func (c *Columns) AppendFrame(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = binary.AppendUvarint(dst, uint64(len(c.vecs)))
	if c.n == 0 {
		return dst
	}
	for ci := range c.vecs {
		v := &c.vecs[ci]
		if v.boxed != nil {
			for i := 0; i < c.n; i++ {
				dst = v.boxed[i].AppendBinary(dst)
			}
			continue
		}
		switch {
		case value.IntClass(v.kind):
			for i, x := range v.ints {
				if v.valid != nil && !v.IsValid(i) {
					dst = append(dst, byte(value.Null))
					continue
				}
				dst = append(dst, byte(v.kind))
				dst = binary.AppendVarint(dst, x)
			}
		case v.kind == value.Float:
			for i, f := range v.floats {
				if v.valid != nil && !v.IsValid(i) {
					dst = append(dst, byte(value.Null))
					continue
				}
				dst = append(dst, byte(value.Float))
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				dst = append(dst, buf[:]...)
			}
		case v.kind == value.String:
			for i, s := range v.strs {
				if v.valid != nil && !v.IsValid(i) {
					dst = append(dst, byte(value.Null))
					continue
				}
				dst = append(dst, byte(value.String))
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
		default: // kindless: every row is null
			for i := 0; i < c.n; i++ {
				dst = append(dst, byte(value.Null))
			}
		}
	}
	return dst
}

// DecodeFrame replaces the set's contents with the rows of one run
// frame — the inverse of AppendFrame (and of the row encoder, whose
// bytes are identical) — and returns the bytes consumed. Each column's
// values are read straight into its typed vector: no value is boxed
// unless a column mixes kinds, and every string header of the frame
// aliases one shared copy of its bytes (framePool), so a warmed,
// recycled set decodes a numeric frame without allocating and a
// string-bearing one with a single allocation. It applies the guards
// tuple.DecodeFrame applies and fails on exactly the inputs that fails
// on; after an error the set's contents are undefined until the next
// Reset. A zero-row frame decodes to an empty zero-column set: with no
// values behind it, the header's column count is backed by no bytes and
// must not size anything.
func (c *Columns) DecodeFrame(src []byte) (int, error) {
	nRows, nCols, pos, err := frameHeader(src)
	if err != nil {
		return 0, err
	}
	if nRows == 0 {
		c.Reset(0)
		return pos, nil
	}
	c.Reset(nCols)
	c.Reserve(nRows)
	var pool framePool
	for ci := range c.vecs {
		if pos, err = c.vecs[ci].decodeColumn(src, pos, nRows, &pool); err != nil {
			return 0, fmt.Errorf("tuple: frame: col %d: %w", ci, err)
		}
	}
	c.n = nRows
	return pos, nil
}

// decodeColumn appends nRows encoded values starting at src[pos] to an
// empty column and returns the offset past them. The kind dispatch is
// hoisted out of the per-value work: each run of same-kind values is one
// tight loop that checks only the next kind byte, a NULL or a kind
// change ends the run, and a column that mixes kinds falls back to
// boxed appends (ColVec.append demotes it).
func (v *ColVec) decodeColumn(src []byte, pos, nRows int, pool *framePool) (int, error) {
	for v.n < nRows {
		if pos >= len(src) {
			return 0, fmt.Errorf("row %d: truncated", v.n)
		}
		k := value.Kind(src[pos])
		switch {
		case v.boxed != nil || (k != value.Null && v.kind != value.Null && k != v.kind):
			var p string
			if k == value.String {
				p = pool.tail(src, pos)
			}
			val, n, err := value.DecodeValuePooled(src[pos:], p)
			if err != nil {
				return 0, fmt.Errorf("row %d: %w", v.n, err)
			}
			v.append(val)
			pos += n
		case k == value.Null:
			v.appendNull()
			pos++
		case value.IntClass(k):
			if v.kind == value.Null {
				v.adopt(k)
			}
			for v.n < nRows && pos < len(src) && value.Kind(src[pos]) == k {
				x, n := binary.Varint(src[pos+1:])
				if n <= 0 {
					return 0, fmt.Errorf("row %d: bad varint for kind %v", v.n, k)
				}
				if v.valid != nil {
					v.noteValid(true)
				}
				v.ints = append(v.ints, x)
				v.n++
				pos += 1 + n
			}
		case k == value.Float:
			if v.kind == value.Null {
				v.adopt(k)
			}
			for v.n < nRows && pos < len(src) && value.Kind(src[pos]) == value.Float {
				if len(src)-pos < 9 {
					return 0, fmt.Errorf("row %d: short float payload", v.n)
				}
				if v.valid != nil {
					v.noteValid(true)
				}
				v.floats = append(v.floats, math.Float64frombits(binary.LittleEndian.Uint64(src[pos+1:])))
				v.n++
				pos += 9
			}
		case k == value.String:
			if v.kind == value.Null {
				v.adopt(k)
			}
			for v.n < nRows && pos < len(src) && value.Kind(src[pos]) == value.String {
				l, n := binary.Uvarint(src[pos+1:])
				if n <= 0 {
					return 0, fmt.Errorf("row %d: bad string length", v.n)
				}
				pos += 1 + n
				if uint64(len(src)-pos) < l {
					return 0, fmt.Errorf("row %d: short string payload (want %d have %d)", v.n, l, len(src)-pos)
				}
				if v.valid != nil {
					v.noteValid(true)
				}
				v.strs = append(v.strs, pool.tail(src, pos)[:l])
				v.n++
				pos += int(l)
			}
		default:
			return 0, fmt.Errorf("row %d: unknown kind %d", v.n, src[pos])
		}
	}
	return pos, nil
}

// Hash64Column hashes column col into dst (resized to FullLen),
// indexed by physical row and consistent with value.Hash64 on the boxed
// equivalents. With a selection set only the selected rows are hashed;
// the other slots are left unspecified, so a caller reads dst[i] for
// live rows i only. Null rows get value.HashNull; callers that must
// skip nulls consult IsNull, exactly like the boxed path checks IsNull
// before hashing.
func (c *Columns) Hash64Column(col int, dst []uint64) []uint64 {
	v := &c.vecs[col]
	if cap(dst) < c.n {
		dst = make([]uint64, c.n)
	}
	dst = dst[:c.n]
	if c.sel != nil {
		v.hashSel(c.sel, dst)
		return dst
	}
	if v.boxed != nil {
		for i := range dst {
			dst[i] = v.boxed[i].Hash64()
		}
		return dst
	}
	switch {
	case value.IntClass(v.kind):
		for i, x := range v.ints {
			dst[i] = value.HashInt64(v.kind, x)
		}
	case v.kind == value.Float:
		for i, f := range v.floats {
			dst[i] = value.HashFloat64(f)
		}
	case v.kind == value.String:
		for i, s := range v.strs {
			dst[i] = value.HashString(s)
		}
	default: // all-null (kindless) column
		for i := range dst {
			dst[i] = value.HashNull
		}
		return dst
	}
	if v.valid != nil {
		for i := range dst {
			if !v.IsValid(i) {
				dst[i] = value.HashNull
			}
		}
	}
	return dst
}

// hashSel is Hash64Column's selected-rows form: it writes dst[i] for
// each i in sel and nothing else.
func (v *ColVec) hashSel(sel []int32, dst []uint64) {
	switch {
	case v.boxed != nil:
		for _, i := range sel {
			dst[i] = v.boxed[i].Hash64()
		}
		return
	case value.IntClass(v.kind):
		for _, i := range sel {
			dst[i] = value.HashInt64(v.kind, v.ints[i])
		}
	case v.kind == value.Float:
		for _, i := range sel {
			dst[i] = value.HashFloat64(v.floats[i])
		}
	case v.kind == value.String:
		for _, i := range sel {
			dst[i] = value.HashString(v.strs[i])
		}
	default: // all-null (kindless) column
		for _, i := range sel {
			dst[i] = value.HashNull
		}
		return
	}
	if v.valid != nil {
		for _, i := range sel {
			if !v.IsValid(int(i)) {
				dst[i] = value.HashNull
			}
		}
	}
}

// MemBytesRows fills dst (resized to FullLen) with every physical row's
// boxed in-memory footprint, matching Tuple.MemBytes on the materialized
// row so budget accounting agrees across the columnar and row paths: the
// constant boxed footprint plus one pass over each string or boxed
// column, so a caller sizing a batch never touches every vector per row.
func (c *Columns) MemBytesRows(dst []int32) []int32 {
	if cap(dst) < c.n {
		dst = make([]int32, c.n)
	}
	dst = dst[:c.n]
	base := int32(24 + 40*len(c.vecs))
	for i := range dst {
		dst[i] = base
	}
	for ci := range c.vecs {
		v := &c.vecs[ci]
		switch {
		case v.boxed != nil:
			for i := range dst {
				if v.boxed[i].K == value.String {
					dst[i] += int32(len(v.boxed[i].S))
				}
			}
		case v.kind == value.String:
			// NULL cells hold "", so the validity bitmap need not be read.
			for i, s := range v.strs {
				dst[i] += int32(len(s))
			}
		}
	}
	return dst
}
