// Fuzz + hardening coverage for the run-frame wire decode — the bytes
// internal/net ships between node processes, so any input a socket can
// deliver (truncated, oversized-length, bit-flipped) must come back as
// an error: never a panic, never an allocation beyond the input's own
// size. FuzzDecodeFrame cross-checks the allocating and scratch decode
// paths against each other, FuzzColumnsDecodeFrame holds the columnar
// decoder (what the TCP fabric actually runs on received frames) to the
// row decoder as its oracle; the regression tests pin the specific
// corrupt shapes the guards exist for, through all three.
package tuple

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptdb/internal/value"
)

// frameOf encodes rows, failing the test on arity errors.
func frameOf(t *testing.T, rows []Tuple) []byte {
	t.Helper()
	b, err := AppendFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleRows() []Tuple {
	return []Tuple{
		{value.NewInt(1), value.NewString("alpha"), value.NewFloat(1.5)},
		{value.NewInt(-7), value.NewString(""), value.Value{}},
		{value.NewInt(1 << 40), value.NewString("Σωκράτης"), value.NewFloat(-1e300)},
	}
}

func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames (empty, numeric, string-bearing) and the
	// corrupt shapes the guards target.
	empty, _ := AppendFrame(nil, nil)
	f.Add(empty)
	if b, err := AppendFrame(nil, sampleRows()); err == nil {
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated mid-values
		flip := bytes.Clone(b)
		flip[len(flip)/3] ^= 0x80 // bit-flipped
		f.Add(flip)
	}
	// Oversized-length headers: huge row count, huge product, row count
	// that overflows int64 multiplication.
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<24), 1<<24))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<62), 4))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<20), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, n, err := DecodeFrame(data)
		var s FrameScratch
		sRows, sn, sErr := s.Decode(data)

		// The two decode paths must agree on outcome.
		if (err == nil) != (sErr == nil) {
			t.Fatalf("decode disagreement: alloc err=%v scratch err=%v", err, sErr)
		}
		if err != nil {
			return
		}
		if n != sn || len(rows) != len(sRows) {
			t.Fatalf("decode divergence: (%d rows, %d bytes) vs scratch (%d rows, %d bytes)",
				len(rows), n, len(sRows), sn)
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for i := range rows {
			a := rows[i].AppendBinary(nil)
			b := sRows[i].AppendBinary(nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("row %d differs between decode paths", i)
			}
		}
		// Successful decodes must round-trip semantically: re-encoding the
		// rows and decoding again yields the same rows. (Byte identity is
		// too strong — the header varints accept non-minimal encodings,
		// e.g. 0x80 0x00 for zero.)
		re, err := AppendFrame(nil, rows)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		rows2, n2, err := DecodeFrame(re)
		if err != nil || n2 != len(re) || len(rows2) != len(rows) {
			t.Fatalf("round-trip decode: rows=%d/%d n=%d/%d err=%v", len(rows2), len(rows), n2, len(re), err)
		}
		for i := range rows {
			if !bytes.Equal(rows[i].AppendBinary(nil), rows2[i].AppendBinary(nil)) {
				t.Fatalf("round-trip row %d differs", i)
			}
		}
	})
}

// TestDecodeFrameCorruptRegressions pins the corrupt-input classes the
// decode guards exist for: every case must return an error without
// panicking, and the size-claim guard must fire before any allocation
// proportional to the claim.
func TestDecodeFrameCorruptRegressions(t *testing.T) {
	valid := frameOf(t, sampleRows())
	cases := []struct {
		name string
		src  []byte
	}{
		{"empty input", nil},
		{"row count only", binary.AppendUvarint(nil, 3)},
		{"truncated header varint", []byte{0xff}},
		{"truncated mid-values", valid[:len(valid)-3]},
		{"truncated to header", valid[:2]},
		{"huge row count", binary.AppendUvarint(binary.AppendUvarint(nil, 1<<62), 4)},
		{"huge column count", binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1<<62)},
		{"product over limit", binary.AppendUvarint(binary.AppendUvarint(nil, 1<<13), 1<<13)},
		// Within frameLimit but claiming far more values than bytes: the
		// allocation-bound guard, not the product guard, rejects these.
		{"claim exceeds input", binary.AppendUvarint(binary.AppendUvarint(nil, 1<<20), 8)},
		{"claim exceeds remaining", append(binary.AppendUvarint(binary.AppendUvarint(nil, 1000), 2), byte(value.Null))},
		{"bad value kind", append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), 0x7f)},
		{"short float payload", append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), byte(value.Float), 1, 2)},
		{"string length past end", append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), byte(value.String), 0xff, 0x01, 'x')},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.src); err == nil {
				t.Errorf("DecodeFrame(%x) succeeded, want error", tc.src)
			}
			var s FrameScratch
			if _, _, err := s.Decode(tc.src); err == nil {
				t.Errorf("scratch Decode(%x) succeeded, want error", tc.src)
			}
			if _, err := NewColumns(0).DecodeFrame(tc.src); err == nil {
				t.Errorf("Columns.DecodeFrame(%x) succeeded, want error", tc.src)
			}
		})
	}
}

// TestDecodeFrameAllocationBounded proves the hardening claim directly:
// a tiny input with a fabricated multi-million-value header must not
// allocate value storage proportional to the claim. 16M claimed values
// would be ~640MB of Tuple storage; the whole decode must stay under a
// megabyte.
func TestDecodeFrameAllocationBounded(t *testing.T) {
	src := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<22), 4)
	src = append(src, make([]byte, 16)...)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeFrame(src); err == nil {
			t.Fatal("corrupt frame decoded")
		}
	})
	// The error path formats one error; a handful of allocations, never
	// the flat value slab.
	if allocs > 8 {
		t.Errorf("corrupt-header decode made %.0f allocations, want a handful", allocs)
	}
	c := NewColumns(0)
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := c.DecodeFrame(src); err == nil {
			t.Fatal("corrupt frame decoded")
		}
	})
	if allocs > 8 {
		t.Errorf("corrupt-header columnar decode made %.0f allocations, want a handful", allocs)
	}
}

// TestDecodeFrameBitFlipSweep flips every bit of a valid frame one at a
// time: each mutation must either decode cleanly (flips inside value
// payloads can still be valid encodings) or return an error — never
// panic, never read out of bounds (the race/asan builds would catch
// it), and never consume more bytes than provided.
func TestDecodeFrameBitFlipSweep(t *testing.T) {
	orig := frameOf(t, sampleRows())
	buf := bytes.Clone(orig)
	c := NewColumns(0) // recycled across mutations, as a pooled batch's is
	for i := 0; i < len(buf)*8; i++ {
		buf[i/8] ^= 1 << (i % 8)
		rows, n, err := DecodeFrame(buf)
		if err == nil && n > len(buf) {
			t.Fatalf("bit %d: consumed %d of %d bytes", i, n, len(buf))
		}
		sameAsRowDecode(t, c, buf, rows, n, err)
		buf[i/8] ^= 1 << (i % 8)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("sweep corrupted the buffer")
	}
}

// sameAsRowDecode holds Columns.DecodeFrame to the row decoder's outcome
// on the same bytes: it fails iff DecodeFrame failed, consumes the same
// bytes, and yields the same rows — value.Equal and bit-identical
// encodings cell by cell, so NaN payloads and the sign of zero survive.
// c arrives in whatever state its last use left it in.
func sameAsRowDecode(t *testing.T, c *Columns, src []byte, rows []Tuple, n int, err error) {
	t.Helper()
	cn, cerr := c.DecodeFrame(src)
	if (err == nil) != (cerr == nil) {
		t.Fatalf("decode disagreement on %x: rows err=%v, columns err=%v", src, err, cerr)
	}
	if err != nil {
		return
	}
	if cn != n || c.FullLen() != len(rows) || c.Len() != len(rows) || c.Sel() != nil {
		t.Fatalf("columns decoded %d rows (len %d, sel %v) in %d bytes; rows decoded %d in %d",
			c.FullLen(), c.Len(), c.Sel(), cn, len(rows), n)
	}
	if len(rows) > 0 && c.NumCols() != len(rows[0]) {
		t.Fatalf("columns decoded %d columns, rows have %d", c.NumCols(), len(rows[0]))
	}
	var got Tuple
	for i, want := range rows {
		got = c.RowTo(got, i)
		for ci := range want {
			if !value.Equal(got[ci], want[ci]) || got[ci].K != want[ci].K ||
				!bytes.Equal(got[ci].AppendBinary(nil), want[ci].AppendBinary(nil)) {
				t.Fatalf("row %d col %d = %v (%v), want %v (%v)", i, ci, got[ci], got[ci].K, want[ci], want[ci].K)
			}
			if c.IsNull(ci, i) != want[ci].IsNull() {
				t.Fatalf("row %d col %d IsNull = %v", i, ci, c.IsNull(ci, i))
			}
		}
		if !bytes.Equal(c.AppendRowBinary(nil, i), want.AppendBinary(nil)) {
			t.Fatalf("row %d: AppendRowBinary differs from the row encoding", i)
		}
	}
	// Both encoders reproduce the frame from what was decoded.
	re, rerr := AppendFrame(nil, rows)
	if rerr != nil {
		t.Fatalf("re-encode: %v", rerr)
	}
	if len(rows) > 0 && !bytes.Equal(c.AppendFrame(nil), re) {
		t.Fatalf("columnar re-encode of %x differs from the row re-encode", src)
	}
}

// colFrameSeeds are valid frames covering the shapes the columnar
// decoder branches on: NULLs at every position of a typed column, NaN
// and both zeros, all-NULL columns, kind changes mid-column (→ boxed,
// with and without strings), NULL-led columns, empty strings, zero rows
// and zero columns.
func colFrameSeeds(t testing.TB) [][]byte {
	null := value.Value{}
	sets := [][]Tuple{
		sampleRows(),
		colRows(70, 3),
		{{value.NewFloat(math.NaN()), value.NewFloat(0)}, {value.NewFloat(math.Copysign(0, -1)), null}, {null, value.NewFloat(math.Inf(-1))}},
		{{null, null}, {null, value.NewInt(3)}, {null, null}},
		{{value.NewInt(1), value.NewString("a")}, {value.NewString("mixed"), value.NewInt(2)}, {null, value.NewFloat(2.5)}, {value.NewDate(9), value.NewString("")}},
		{{value.NewBool(true), value.NewDate(1)}, {value.NewBool(false), value.NewInt(1)}},
		{{null, value.NewString("")}, {value.NewString("late"), value.NewString("x")}, {null, null}},
		{{}, {}, {}}, // three rows, zero columns
	}
	var out [][]byte
	for _, rows := range sets {
		b, err := AppendFrame(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	empty := NewColumns(5) // zero rows under a non-zero column count
	return append(out, empty.AppendFrame(nil))
}

// corpusOf reads the checked-in seed corpus of another fuzz target of
// this package ([]byte-valued, "go test fuzz v1" files).
func corpusOf(t testing.TB, target string) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus for %s (%v)", target, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a []byte corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzColumnsDecodeFrame is the differential wall of the columnar
// decoder: on any bytes it errors iff DecodeFrame errors, and otherwise
// holds the same rows (sameAsRowDecode) — into a fresh set and into one
// left dirty by a differently-shaped decode, as a pooled batch's is.
func FuzzColumnsDecodeFrame(f *testing.F) {
	for _, b := range corpusOf(f, "FuzzDecodeFrame") {
		f.Add(b)
	}
	dirty := colFrameSeeds(f)[0]
	for _, b := range colFrameSeeds(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
		if len(b) > 3 {
			flip := bytes.Clone(b)
			flip[len(flip)/3] ^= 0x80
			f.Add(flip)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, n, err := DecodeFrame(data)
		sameAsRowDecode(t, NewColumns(0), data, rows, n, err)
		recycled := NewColumns(0)
		if _, err := recycled.DecodeFrame(dirty); err != nil {
			t.Fatal(err)
		}
		sameAsRowDecode(t, recycled, data, rows, n, err)
	})
}

// TestColumnsDecodeFrameRoundTrip decodes what each encoder wrote — the
// columnar one and the row one, whose bytes must be identical — and
// gets the source rows back.
func TestColumnsDecodeFrameRoundTrip(t *testing.T) {
	for _, nullEvery := range []int{0, 1, 3} {
		rows := colRows(257, nullEvery)
		src := NewColumns(4)
		src.AppendRows(rows)
		colEnc := src.AppendFrame(nil)
		if !bytes.Equal(colEnc, frameOf(t, rows)) {
			t.Fatal("Columns.AppendFrame and AppendFrame disagree")
		}
		c := NewColumns(0)
		n, err := c.DecodeFrame(append(colEnc, 0xAA, 0xBB)) // trailing bytes are not the frame's
		if err != nil || n != len(colEnc) {
			t.Fatalf("nullEvery=%d: n=%d err=%v, want %d", nullEvery, n, err, len(colEnc))
		}
		if c.FullLen() != len(rows) || c.NumCols() != 4 {
			t.Fatalf("decoded %dx%d, want %dx4", c.FullLen(), c.NumCols(), len(rows))
		}
		for i, r := range rows {
			eqRow(t, c, i, r)
		}
		// Homogeneous columns land in typed vectors, not the boxed fallback.
		if nullEvery != 1 {
			for ci, k := range []value.Kind{value.Int, value.Float, value.String, value.Date} {
				if v := c.Col(ci); v.Boxed() != nil || v.Kind() != k {
					t.Fatalf("col %d decoded as kind %v boxed=%v, want typed %v", ci, v.Kind(), v.Boxed() != nil, k)
				}
			}
		}
	}
	for _, enc := range colFrameSeeds(t) {
		rows, n, err := DecodeFrame(enc)
		sameAsRowDecode(t, NewColumns(0), enc, rows, n, err)
	}
}

// TestColumnsDecodeFrameAllocs pins the receive path's allocation
// contract: a warmed, recycled set decodes a numeric frame without
// allocating, and a string-bearing frame with exactly one allocation —
// the shared copy every string header of the frame aliases.
func TestColumnsDecodeFrameAllocs(t *testing.T) {
	const n = 1024
	num := make([]Tuple, n)
	str := make([]Tuple, n)
	for i := range num {
		num[i] = Tuple{value.NewInt(int64(i)), value.NewFloat(float64(i) / 3), value.NewDate(int64(9000 + i))}
		str[i] = Tuple{value.NewInt(int64(i)), value.NewString("payload-" + strconv.Itoa(i)), value.NewString("flag")}
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		want float64
	}{
		{"numeric", frameOf(t, num), 0},
		{"strings", frameOf(t, str), 1},
	} {
		c := NewColumns(0)
		if _, err := c.DecodeFrame(tc.enc); err != nil { // warm the vectors
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.DecodeFrame(tc.enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s frame: %v allocs per warmed decode, want %v", tc.name, allocs, tc.want)
		}
	}
	// All of the frame's headers alias one copy: none of them is a copy
	// of its own, and the copy is not the input.
	enc := frameOf(t, str)
	c := NewColumns(0)
	if _, err := c.DecodeFrame(enc); err != nil {
		t.Fatal(err)
	}
	clear(enc)
	for i := range str {
		if got := c.Col(1).Str(i); got != str[i][1].S {
			t.Fatalf("row %d string = %q after the input was recycled, want %q", i, got, str[i][1].S)
		}
	}
}
