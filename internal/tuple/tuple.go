// Package tuple defines rows (ordered lists of values) and their binary
// codec against a schema. Blocks in the distributed file system simulator
// store tuples in this encoding; the executor decodes them back when a
// scan or join task reads a block.
package tuple

import (
	"fmt"

	"adaptdb/internal/schema"
	"adaptdb/internal/value"
)

// Tuple is one row. Index i corresponds to schema column i.
type Tuple []value.Value

// Clone returns a deep-enough copy (values are immutable, so a slice copy
// suffices).
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Conforms checks that the tuple's arity and value kinds match the schema.
// Null values are accepted in any column.
func (t Tuple) Conforms(s *schema.Schema) error {
	if len(t) != s.NumCols() {
		return fmt.Errorf("tuple: arity %d does not match schema %s", len(t), s)
	}
	for i, v := range t {
		if v.K != value.Null && v.K != s.Kind(i) {
			return fmt.Errorf("tuple: column %d (%s) has kind %s, want %s",
				i, s.Name(i), v.K, s.Kind(i))
		}
	}
	return nil
}

// AppendBinary appends the tuple encoding to dst. Each value uses its own
// self-describing encoding; the schema fixes the arity at decode time.
func (t Tuple) AppendBinary(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// Decode decodes one tuple of s.NumCols() values from src, returning the
// tuple and bytes consumed.
func Decode(src []byte, s *schema.Schema) (Tuple, int, error) {
	t := make(Tuple, s.NumCols())
	pos := 0
	for i := range t {
		v, n, err := value.DecodeValue(src[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("tuple: column %d: %w", i, err)
		}
		t[i] = v
		pos += n
	}
	return t, pos, nil
}

// Views splits rows into contiguous sub-slices of at most size rows
// each, without copying: each view aliases rows' backing array (capped
// so appends cannot clobber the next view). The batched executor uses
// Views to stream an in-memory row set through a pipeline with zero
// per-row allocation.
func Views(rows []Tuple, size int) [][]Tuple {
	if len(rows) == 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	out := make([][]Tuple, 0, (len(rows)+size-1)/size)
	for start := 0; start < len(rows); start += size {
		end := start + size
		if end > len(rows) {
			end = len(rows)
		}
		out = append(out, rows[start:end:end])
	}
	return out
}

// Concat builds a wide tuple from two tuples, used for join outputs.
func Concat(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// ConcatSchemas builds the join-output schema, prefixing column names to
// keep them unique across the two sides.
func ConcatSchemas(prefixA string, a *schema.Schema, prefixB string, b *schema.Schema) *schema.Schema {
	cols := make([]schema.Column, 0, a.NumCols()+b.NumCols())
	for i := 0; i < a.NumCols(); i++ {
		cols = append(cols, schema.Column{Name: prefixA + "." + a.Name(i), Kind: a.Kind(i)})
	}
	for i := 0; i < b.NumCols(); i++ {
		cols = append(cols, schema.Column{Name: prefixB + "." + b.Name(i), Kind: b.Kind(i)})
	}
	return schema.MustNew(cols...)
}
