// Run-file serialization: the columnar frame codec spilled join
// partitions are persisted with (internal/exec/spill.go). A frame packs
// a bounded group of same-arity rows column-major — uvarint row count,
// uvarint column count, then every value of column 0, column 1, … —
// each value in its existing self-describing binary encoding. Column-
// major layout groups same-kind bytes together (strings with strings,
// varints with varints), which is what makes run files compress well on
// real systems; here it keeps the format honest to its name while
// reusing the exact codec blocks already use.
package tuple

import (
	"encoding/binary"
	"fmt"

	"adaptdb/internal/value"
)

// AppendFrame appends a columnar frame encoding rows to dst and returns
// the extended slice. All rows must share one arity; an empty rows
// slice encodes a valid empty frame.
func AppendFrame(dst []byte, rows []Tuple) ([]byte, error) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("tuple: frame row %d has arity %d, want %d", i, len(r), cols)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(cols))
	for c := 0; c < cols; c++ {
		for _, r := range rows {
			dst = r[c].AppendBinary(dst)
		}
	}
	return dst, nil
}

// frameLimit bounds the row×column product a single decoded frame may
// claim, so a corrupt length prefix cannot drive a giant allocation.
const frameLimit = 1 << 24

// DecodeFrame decodes one frame from src, returning the rows and the
// bytes consumed. Row storage is carved from one flat allocation per
// frame; the returned tuples alias it but are capacity-clipped, so
// appending to one allocates instead of clobbering its neighbour.
// String payloads share one string copy of the frame bytes, so
// retaining any single value keeps the whole frame's strings alive —
// the right trade for run-file frames, which are loaded into tables
// wholesale or dropped wholesale.
func DecodeFrame(src []byte) ([]Tuple, int, error) {
	return decodeFrame(src, nil)
}

// FrameScratch carries reusable decode storage for callers that drop
// every row before decoding the next frame — the streamed side of a
// spilled-partition join, where rows are probed and forgotten. Reuse
// makes that path allocation-free for string-less rows.
type FrameScratch struct {
	flat Tuple
	rows []Tuple
}

// Decode is DecodeFrame over the scratch's storage. The returned rows
// are valid only until the next Decode on the same scratch.
func (s *FrameScratch) Decode(src []byte) ([]Tuple, int, error) {
	return decodeFrame(src, s)
}

// frameHeader parses a frame's row and column counts and applies the
// size guards every decoder shares, returning the counts and the offset
// of the first value.
func frameHeader(src []byte) (nRows, nCols, pos int, err error) {
	r, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("tuple: frame: bad row count")
	}
	pos = n
	c, n := binary.Uvarint(src[pos:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("tuple: frame: bad column count")
	}
	pos += n
	// Bound each factor before multiplying: a corrupt header like
	// nRows=1<<62 would overflow the product past the guard and panic
	// in the decoder's allocation instead of erroring.
	if r > frameLimit || c > frameLimit || r*c > frameLimit {
		return 0, 0, 0, fmt.Errorf("tuple: frame: implausible size %d×%d", r, c)
	}
	// Every encoded value takes at least one byte, so a frame claiming
	// more values than it has bytes left is corrupt. Checking before any
	// allocation bounds decode memory by the input length — a 20-byte
	// frame with a fabricated 16M-value header allocates nothing, where
	// the frameLimit guard alone would let it claim ~640MB of Tuple
	// storage before the value decode loop failed.
	if nVals := int(r * c); nVals > len(src)-pos {
		return 0, 0, 0, fmt.Errorf("tuple: frame: %d values claimed in %d remaining bytes", nVals, len(src)-pos)
	}
	return int(r), int(c), pos, nil
}

// framePool is the one string copy of a frame's bytes that backs every
// string payload decoded from it. It is made at the first string value,
// from there on: numeric frames, and the numeric columns ahead of the
// first string column, are never copied.
type framePool struct {
	s   string
	off int // s[i] mirrors src[off+i]
}

// tail returns the pooled copy of src[pos:].
func (p *framePool) tail(src []byte, pos int) string {
	if p.s == "" {
		p.s, p.off = string(src[pos:]), pos
	}
	return p.s[pos-p.off:]
}

func decodeFrame(src []byte, s *FrameScratch) ([]Tuple, int, error) {
	nRows, nCols, pos, err := frameHeader(src)
	if err != nil {
		return nil, 0, err
	}
	if nRows == 0 {
		return nil, pos, nil
	}
	nVals := nRows * nCols
	var flat Tuple
	var rows []Tuple
	if s != nil {
		if cap(s.flat) < nVals {
			s.flat = make(Tuple, nVals)
		}
		if cap(s.rows) < nRows {
			s.rows = make([]Tuple, nRows)
		}
		flat, rows = s.flat[:nVals], s.rows[:nRows]
	} else {
		flat = make(Tuple, nVals)
		rows = make([]Tuple, nRows)
	}
	// One string copy of the frame backs every string payload
	// (DecodeValuePooled); created lazily so all-numeric frames pay
	// nothing.
	var pool framePool
	for c := 0; c < nCols; c++ {
		for r := 0; r < nRows; r++ {
			var vpool string
			if pos < len(src) && value.Kind(src[pos]) == value.String {
				vpool = pool.tail(src, pos)
			}
			v, vn, err := value.DecodeValuePooled(src[pos:], vpool)
			if err != nil {
				return nil, 0, fmt.Errorf("tuple: frame: row %d col %d: %w", r, c, err)
			}
			flat[r*nCols+c] = v
			pos += vn
		}
	}
	for r := range rows {
		off := r * nCols
		rows[r] = flat[off : off+nCols : off+nCols]
	}
	return rows, pos, nil
}

// MemBytes estimates the in-memory footprint of the tuple: the slice
// header, each value's fixed struct size, and string payloads. The
// executor's MemBudget charges this per retained row — cheap, stable
// across runs, and close enough for spill decisions.
func (t Tuple) MemBytes() int {
	n := 24 + 40*len(t)
	for _, v := range t {
		n += len(v.S)
	}
	return n
}
