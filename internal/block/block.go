// Package block implements AdaptDB data blocks: the unit of storage,
// partitioning and I/O accounting. A block holds its rows column-major
// — one typed vector per attribute plus a validity bitmap (a
// tuple.Columns), the same layout the executor's batches, the spill
// runs and the wire frames use, so a scan filters and copies vectors
// instead of re-boxing rows — and a zone map (per-attribute min/max).
// Zone maps serve two roles from the paper: they are the Ranget(x)
// function hyper-join uses to compute overlap vectors (§4.1.1), and they
// let scans skip blocks whose ranges cannot satisfy a query's
// predicates. Cols().AppendFrame / Columns.DecodeFrame is the block's
// one serialized form.
package block

import (
	"adaptdb/internal/predicate"
	"adaptdb/internal/recycle"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// ID identifies a block within one table. IDs are dense and assigned by
// the table's partitioning tree (leaf ids) or by the repartitioner.
type ID int32

// Block is an in-memory batch of rows, stored column-major, with
// maintained zone maps. The zero Block is empty and usable; it takes its
// column count from the first rows appended. Every row of a block has
// the same arity.
type Block struct {
	// cols is nil until the block takes storage, at its first append.
	cols *tuple.Columns
	mins []value.Value
	maxs []value.Value
}

// New returns an empty block sized for the given schema.
func New(s *schema.Schema) *Block {
	b := &Block{}
	b.shape(s.NumCols())
	return b
}

// shape gives a still-empty block its column count; a block that holds
// rows keeps the one it has.
func (b *Block) shape(ncols int) {
	if b.Len() > 0 || len(b.mins) == ncols {
		return
	}
	if b.cols != nil {
		b.cols.Reset(ncols)
	}
	b.mins = make([]value.Value, ncols)
	b.maxs = make([]value.Value, ncols)
}

// Len returns the number of rows.
func (b *Block) Len() int {
	if b.cols == nil {
		return 0
	}
	return b.cols.FullLen()
}

// noCols is the column set of a block that never took a column count.
var noCols tuple.Columns

// Cols returns the block's column vectors. The view is read-only: it
// carries no selection, is shared by every reader of the block, and
// stays valid only until the next append.
func (b *Block) Cols() *tuple.Columns {
	if b.cols == nil {
		return &noCols
	}
	return b.cols
}

// Rows materializes the block's rows, in order, as boxed tuples over
// one fresh arena — the accessor for tests and oracles; engine code
// reads Cols.
func (b *Block) Rows() []tuple.Tuple {
	cols := b.Cols()
	n, ncols := cols.FullLen(), cols.NumCols()
	arena := make(tuple.Tuple, n*ncols)
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = cols.RowTo(arena[i*ncols:i*ncols:(i+1)*ncols], i)
	}
	return rows
}

// AppendRows adds rows in order — the load path: one transpose and one
// zone-map pass per column instead of per cell.
func (b *Block) AppendRows(rows []tuple.Tuple) {
	if len(rows) == 0 {
		return
	}
	b.shape(len(rows[0]))
	from := b.Len()
	if b.cols == nil {
		b.cols = tuple.NewColumns(len(rows[0]))
	}
	if from == 0 {
		b.cols.Reserve(len(rows)) // a loaded block's vectors are born exact-size
	}
	b.cols.AppendRows(rows)
	b.extendZones(from)
}

// Grow makes room for rows rows in every column vector, so appends up
// to that count write in place. When the block's storage cannot hold
// them, its rows move into recycled storage (recycle.GrowStore) shaped
// like like, the source of the rows to come, of the smallest class
// that holds them, and the storage it outgrew goes back: growth
// doubles, and a drained block's vectors are what the next one grows
// into. A view of the block taken with tuple.Columns.AliasRange is
// capped at its own rows, so it never sees the slots this reserves; but
// a move hands the old vectors to their next owner, so no view of the
// block may outlive a Grow that moves it (the caller's rule: a
// migration never overlaps a scan).
func (b *Block) Grow(like *tuple.Columns, rows int) {
	b.shape(like.NumCols())
	b.cols = recycle.GrowStore(b.cols, like, rows)
}

// Release hands the block's column storage back to the recycler and
// leaves the block empty, its zone map with it. Nothing may read the
// block, or any view of its vectors, afterwards: a migration releases
// the blocks it drained once it has staged their rows and deleted them
// from the store.
func (b *Block) Release() {
	if b.cols == nil {
		return
	}
	recycle.PutStore(b.cols)
	b.cols, b.mins, b.maxs = nil, nil, nil
}

// AppendGather adds src's physical rows idxs, in order — how migration
// moves rows between blocks without boxing them. src must have the
// block's column layout. Storage that cannot take the rows grows
// first (Grow).
func (b *Block) AppendGather(src *tuple.Columns, idxs []int32) {
	from := b.Len()
	b.Grow(src, from+len(idxs))
	b.cols.AppendGather(src, idxs)
	b.extendZones(from)
}

// extendZones folds rows [from, Len) into the zone map, one typed loop
// per column. The result is what folding the boxed cells one by one
// with value.Less gives: NULLs are skipped, floats order NaN first, a
// mixed-kind (boxed) column orders across kinds, and of several equal
// extremes the first appended one is kept.
func (b *Block) extendZones(from int) {
	to := b.Len()
	for ci := range b.mins {
		v := b.cols.Col(ci)
		if bx := v.Boxed(); bx != nil {
			for _, x := range bx[from:to] {
				if !x.IsNull() {
					b.fold(ci, x, x)
				}
			}
			continue
		}
		k := v.Kind()
		var lo, hi value.Value
		switch {
		case value.IntClass(k):
			mn, mx, ok := rangeOf(v, v.Ints(), from, to)
			if !ok {
				continue
			}
			lo, hi = value.Value{K: k, I: mn}, value.Value{K: k, I: mx}
		case k == value.Float:
			mn, mx, ok := floatRangeOf(v, v.Floats(), from, to)
			if !ok {
				continue
			}
			lo, hi = value.NewFloat(mn), value.NewFloat(mx)
		case k == value.String:
			mn, mx, ok := rangeOf(v, v.Strs(), from, to)
			if !ok {
				continue
			}
			lo, hi = value.NewString(mn), value.NewString(mx)
		default:
			continue // kindless: every row so far is NULL
		}
		b.fold(ci, lo, hi)
	}
}

// rangeOf returns the first-seen minimum and maximum of xs[from:to],
// skipping v's NULL rows; ok is false when all are NULL.
func rangeOf[T int64 | string](v *tuple.ColVec, xs []T, from, to int) (mn, mx T, ok bool) {
	nulls := v.Valid() != nil
	for i := from; i < to; i++ {
		if nulls && !v.IsValid(i) {
			continue
		}
		switch x := xs[i]; {
		case !ok:
			mn, mx, ok = x, x, true
		case x < mn:
			mn = x
		case mx < x:
			mx = x
		}
	}
	return mn, mx, ok
}

// floatRangeOf is rangeOf under value.CompareFloat's order: a NaN is
// below every other float and equal to any other NaN.
func floatRangeOf(v *tuple.ColVec, xs []float64, from, to int) (mn, mx float64, ok bool) {
	less := func(a, b float64) bool { return a < b || (a != a && b == b) }
	nulls := v.Valid() != nil
	for i := from; i < to; i++ {
		if nulls && !v.IsValid(i) {
			continue
		}
		switch x := xs[i]; {
		case !ok:
			mn, mx, ok = x, x, true
		case less(x, mn):
			mn = x
		case less(mx, x):
			mx = x
		}
	}
	return mn, mx, ok
}

// fold widens column ci's zone to cover [lo, hi].
func (b *Block) fold(ci int, lo, hi value.Value) {
	if b.mins[ci].IsNull() || value.Less(lo, b.mins[ci]) {
		b.mins[ci] = lo
	}
	if b.maxs[ci].IsNull() || value.Less(b.maxs[ci], hi) {
		b.maxs[ci] = hi
	}
}

// Range returns the zone-map interval of column col: the paper's
// Ranget(x). Empty blocks or all-null columns return an empty range so
// that an empty block never overlaps anything.
func (b *Block) Range(col int) predicate.Range {
	if b.Len() == 0 || col >= len(b.mins) || b.mins[col].IsNull() {
		return predicate.Range{HasLo: true, HasHi: true,
			Lo: value.NewInt(1), Hi: value.NewInt(0)} // provably empty
	}
	return predicate.Closed(b.mins[col], b.maxs[col])
}

// Min returns the zone-map minimum for col (Null if no data).
func (b *Block) Min(col int) value.Value {
	if col >= len(b.mins) {
		return value.Value{}
	}
	return b.mins[col]
}

// Max returns the zone-map maximum for col (Null if no data).
func (b *Block) Max(col int) value.Value {
	if col >= len(b.maxs) {
		return value.Value{}
	}
	return b.maxs[col]
}

// MaybeMatches reports whether the block could contain tuples satisfying
// the per-column ranges (from predicate.ColumnRanges). It must never
// return false for a block that contains a matching tuple.
func (b *Block) MaybeMatches(ranges map[int]predicate.Range) bool {
	if b.Len() == 0 {
		return false
	}
	for col, r := range ranges {
		if !b.Range(col).Overlaps(r) {
			return false
		}
	}
	return true
}

// Meta is one block's metadata detached from its data: tuple count and
// zone map. The paper stores "the Ranget values for each block ... with
// each block in the partitioning tree"; a tree's block catalog
// (internal/core) holds these records column-major, and Meta is the
// one-block form the catalog's tests compare it with.
type Meta struct {
	ID    ID
	Count int
	Mins  []value.Value
	Maxs  []value.Value
}

// MetaOf extracts the metadata of a block.
func MetaOf(id ID, b *Block) Meta {
	return Meta{
		ID:    id,
		Count: b.Len(),
		Mins:  append([]value.Value(nil), b.mins...),
		Maxs:  append([]value.Value(nil), b.maxs...),
	}
}

// Range returns the zone-map interval for col from detached metadata.
func (m Meta) Range(col int) predicate.Range {
	if m.Count == 0 || col >= len(m.Mins) || m.Mins[col].IsNull() {
		return predicate.Range{HasLo: true, HasHi: true,
			Lo: value.NewInt(1), Hi: value.NewInt(0)}
	}
	return predicate.Closed(m.Mins[col], m.Maxs[col])
}

// MaybeMatches is Block.MaybeMatches over detached metadata.
func (m Meta) MaybeMatches(ranges map[int]predicate.Range) bool {
	if m.Count == 0 {
		return false
	}
	for col, r := range ranges {
		if !m.Range(col).Overlaps(r) {
			return false
		}
	}
	return true
}
