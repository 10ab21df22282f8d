package tuple

import (
	"bytes"
	"math"
	"testing"

	"adaptdb/internal/value"
)

// colRows builds a mixed-shape row set: int, float, string and date
// columns, with NULLs sprinkled into every column when nullEvery > 0.
func colRows(n, nullEvery int) []Tuple {
	rows := make([]Tuple, n)
	names := []string{"alpha", "bravo", "charlie", "", "delta-very-long-name-beyond-small"}
	for i := range rows {
		r := Tuple{
			value.NewInt(int64(i) % 97),
			value.NewFloat(float64(i) * 0.5),
			value.NewString(names[i%len(names)]),
			value.NewDate(int64(20000 + i)),
		}
		if nullEvery > 0 && i%nullEvery == 0 {
			r[i%len(r)] = value.Value{}
		}
		rows[i] = r
	}
	return rows
}

// eqRow fails the test when physical row i of c differs from want.
func eqRow(t *testing.T, c *Columns, i int, want Tuple) {
	t.Helper()
	for ci := range want {
		got := c.Value(ci, i)
		if value.Compare(got, want[ci]) != 0 {
			t.Fatalf("row %d col %d = %v, want %v", i, ci, got, want[ci])
		}
		if c.IsNull(ci, i) != want[ci].IsNull() {
			t.Fatalf("row %d col %d IsNull = %v, want %v", i, ci, c.IsNull(ci, i), want[ci].IsNull())
		}
	}
}

func TestColumnsAppendRowsMatchesAppendRow(t *testing.T) {
	// The bulk transpose and the per-row append must build identical
	// columns, including validity bitmaps past the 64-row word boundary.
	rows := colRows(300, 7)
	perRow := NewColumns(4)
	for _, r := range rows {
		perRow.AppendRow(r)
	}
	bulk := NewColumns(4)
	bulk.AppendRows(rows[:100])
	bulk.AppendRows(rows[100:])
	if perRow.FullLen() != len(rows) || bulk.FullLen() != len(rows) {
		t.Fatalf("lens: perRow=%d bulk=%d want %d", perRow.FullLen(), bulk.FullLen(), len(rows))
	}
	for i, r := range rows {
		eqRow(t, perRow, i, r)
		eqRow(t, bulk, i, r)
	}
	// Typed storage must have been kept (no silent demotion to boxed).
	for ci := 0; ci < 4; ci++ {
		if perRow.Col(ci).Boxed() != nil || bulk.Col(ci).Boxed() != nil {
			t.Fatalf("col %d demoted to boxed on homogeneous input", ci)
		}
	}
}

func TestColVecLeadingNullsAdopt(t *testing.T) {
	// A column whose first rows are all NULL adopts its kind late and
	// backfills; the bulk path must agree.
	rows := []Tuple{{value.Value{}}, {value.Value{}}, {value.NewInt(5)}, {value.Value{}}, {value.NewInt(9)}}
	for _, mode := range []string{"perRow", "bulk"} {
		c := NewColumns(1)
		if mode == "bulk" {
			c.AppendRows(rows)
		} else {
			for _, r := range rows {
				c.AppendRow(r)
			}
		}
		for i, r := range rows {
			eqRow(t, c, i, r)
		}
		if got := c.Col(0).Kind(); got != value.Int {
			t.Fatalf("%s: kind = %v, want Int", mode, got)
		}
	}
}

func TestColVecMixedKindDemotes(t *testing.T) {
	// Mixed kinds in one column are legal (dynamically typed tuples) and
	// demote to boxed storage without losing a value.
	rows := []Tuple{{value.NewInt(1)}, {value.NewString("two")}, {value.NewFloat(3.5)}, {value.Value{}}}
	for _, mode := range []string{"perRow", "bulk"} {
		c := NewColumns(1)
		if mode == "bulk" {
			c.AppendRows(rows)
		} else {
			for _, r := range rows {
				c.AppendRow(r)
			}
		}
		if c.Col(0).Boxed() == nil {
			t.Fatalf("%s: mixed-kind column did not demote", mode)
		}
		for i, r := range rows {
			eqRow(t, c, i, r)
		}
	}
}

func TestColumnsSelection(t *testing.T) {
	rows := colRows(10, 0)
	c := NewColumns(4)
	c.AppendRows(rows)
	if c.Len() != 10 || c.Sel() != nil {
		t.Fatalf("fresh set: Len=%d Sel=%v", c.Len(), c.Sel())
	}
	// FilterSel with no selection installed starts from all physical rows.
	c.FilterSel(func(i int) bool { return i%2 == 0 })
	if c.Len() != 5 || c.FullLen() != 10 {
		t.Fatalf("after even filter: Len=%d FullLen=%d", c.Len(), c.FullLen())
	}
	// Refining narrows in place without touching storage.
	c.FilterSel(func(i int) bool { return i >= 4 })
	want := []int32{4, 6, 8}
	sel := c.Sel()
	if len(sel) != len(want) {
		t.Fatalf("refined sel = %v, want %v", sel, want)
	}
	for k, i := range want {
		if sel[k] != i {
			t.Fatalf("refined sel = %v, want %v", sel, want)
		}
		eqRow(t, c, int(i), rows[i])
	}
	// RowTo and Value keep addressing PHYSICAL indices regardless of sel.
	got := c.RowTo(nil, 1)
	for ci := range got {
		if value.Compare(got[ci], rows[1][ci]) != 0 {
			t.Fatal("RowTo addressed a selected index, want physical")
		}
	}
}

func TestFilterSelToEmpty(t *testing.T) {
	// A filter that rejects every row must leave an EMPTY selection, not
	// a nil one — nil sel means "every row live", so a zero-survivor
	// filter on a fresh set silently un-filtering is a correctness bug.
	c := NewColumns(4)
	c.AppendRows(colRows(10, 0))
	c.FilterSel(func(int) bool { return false })
	if c.Sel() == nil {
		t.Fatal("reject-all filter left sel nil (= all rows live)")
	}
	if c.Len() != 0 {
		t.Fatalf("reject-all filter: Len=%d, want 0", c.Len())
	}
	// Filtering an already-empty selection stays empty.
	c.FilterSel(func(int) bool { return true })
	if c.Len() != 0 {
		t.Fatalf("filter over empty sel resurrected %d rows", c.Len())
	}
}

func TestAppendRowBinaryMatchesTuple(t *testing.T) {
	// The columnar checksum/wire encoding must be byte-identical to the
	// row path's Tuple.AppendBinary for every kind, NULLs included.
	rows := colRows(150, 5)
	rows = append(rows, Tuple{value.NewBool(true), value.NewFloat(math.Inf(-1)), value.NewString(""), value.Value{}})
	c := NewColumns(4)
	c.AppendRows(rows)
	// A boxed (mixed-kind) column must encode identically too.
	m := NewColumns(1)
	for i, r := range rows {
		if i%2 == 0 {
			m.AppendRow(Tuple{r[0]})
		} else {
			m.AppendRow(Tuple{r[2]})
		}
	}
	for i, r := range rows {
		if got, want := c.AppendRowBinary(nil, i), r.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("row %d: columnar encoding %x, tuple encoding %x", i, got, want)
		}
		mr := Tuple{r[0]}
		if i%2 == 1 {
			mr = Tuple{r[2]}
		}
		if got, want := m.AppendRowBinary(nil, i), mr.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("boxed row %d: columnar encoding %x, tuple encoding %x", i, got, want)
		}
	}
}

func TestHash64ColumnMatchesBoxed(t *testing.T) {
	// Vectorized column hashing must agree with Value.Hash64 on every
	// cell — including -0.0/NaN folding, NULLs, all-null columns and
	// boxed columns — or the two join paths would disagree on buckets.
	rows := colRows(200, 9)
	rows = append(rows,
		Tuple{value.NewInt(-1), value.NewFloat(math.Copysign(0, -1)), value.NewString("x"), value.Value{}},
		Tuple{value.NewInt(0), value.NewFloat(math.NaN()), value.NewString(""), value.NewDate(1)},
	)
	c := NewColumns(4)
	c.AppendRows(rows)
	var hv []uint64
	for ci := 0; ci < 4; ci++ {
		hv = c.Hash64Column(ci, hv)
		if len(hv) != len(rows) {
			t.Fatalf("col %d: %d hashes for %d rows", ci, len(hv), len(rows))
		}
		for i, r := range rows {
			if want := r[ci].Hash64(); hv[i] != want {
				t.Fatalf("col %d row %d (%v): hash %x, want %x", ci, i, r[ci], hv[i], want)
			}
		}
	}
	// All-null column: kindless storage, every hash is HashNull.
	an := NewColumns(1)
	for i := 0; i < 5; i++ {
		an.AppendRow(Tuple{value.Value{}})
	}
	for _, h := range an.Hash64Column(0, nil) {
		if h != value.HashNull {
			t.Fatalf("all-null column hashed %x, want %x", h, value.HashNull)
		}
	}
	// Boxed column: mixed kinds still hash like their boxed values.
	b := NewColumns(1)
	b.AppendRow(Tuple{value.NewInt(3)})
	b.AppendRow(Tuple{value.NewString("three")})
	bh := b.Hash64Column(0, nil)
	if bh[0] != value.NewInt(3).Hash64() || bh[1] != value.NewString("three").Hash64() {
		t.Fatal("boxed column hashes disagree with Value.Hash64")
	}
}

// TestHash64ColumnSelectedRows: with a selection set, every selected
// row's slot holds value.Hash64 of its cell — typed, NULL-bearing,
// boxed and kindless columns alike.
func TestHash64ColumnSelectedRows(t *testing.T) {
	rows := colRows(300, 7) // NULLs in every column
	c := NewColumns(4)
	c.AppendRows(rows)
	boxed := NewColumns(1)
	kindless := NewColumns(1)
	var bRows, kRows []Tuple
	for i := 0; i < 300; i++ {
		b := Tuple{value.NewInt(int64(i))}
		if i%2 == 1 {
			b[0] = value.NewString("s" + string(rune('a'+i%26)))
		}
		boxed.AppendRow(b)
		bRows = append(bRows, b)
		kindless.AppendRow(Tuple{value.Value{}})
		kRows = append(kRows, Tuple{value.Value{}})
	}
	var sel []int32
	for i := int32(1); i < 300; i += 3 {
		sel = append(sel, i)
	}
	check := func(name string, set *Columns, want []Tuple, col int) {
		t.Helper()
		set.SetSel(sel)
		hv := set.Hash64Column(col, nil)
		if len(hv) != set.FullLen() {
			t.Fatalf("%s: %d hashes for %d physical rows", name, len(hv), set.FullLen())
		}
		for _, i := range sel {
			if w := want[i][col].Hash64(); hv[i] != w {
				t.Fatalf("%s row %d (%v): hash %x, want %x", name, i, want[i][col], hv[i], w)
			}
		}
	}
	for ci, name := range []string{"int", "float", "string", "date"} {
		check(name, c, rows, ci)
	}
	if boxed.Col(0).Boxed() == nil || kindless.Col(0).Kind() != value.Null {
		t.Fatal("fixture columns are not boxed and kindless")
	}
	check("boxed", boxed, bRows, 0)
	check("kindless", kindless, kRows, 0)
}

func TestColumnsGather(t *testing.T) {
	rows := colRows(64, 6)
	src := NewColumns(4)
	src.AppendRows(rows)
	idxs := []int32{63, 0, 7, 7, 12}
	dst := NewColumns(4)
	for ci := 0; ci < 4; ci++ {
		dst.AppendColumnGather(ci, src, ci, idxs)
	}
	dst.AddRows(len(idxs))
	if dst.FullLen() != len(idxs) {
		t.Fatalf("gathered %d rows, want %d", dst.FullLen(), len(idxs))
	}
	for k, i := range idxs {
		eqRow(t, dst, k, rows[i])
	}
}

func TestAppendColumnsHonorsSelection(t *testing.T) {
	rows := colRows(20, 0)
	src := NewColumns(4)
	src.AppendRows(rows)
	src.SetSel([]int32{1, 3, 5})
	dst := NewColumns(4)
	dst.AppendColumns(src)
	if dst.FullLen() != 3 {
		t.Fatalf("appended %d rows, want 3", dst.FullLen())
	}
	for k, i := range []int{1, 3, 5} {
		eqRow(t, dst, k, rows[i])
	}
	// No selection: bulk concatenation path.
	dst2 := NewColumns(4)
	src.SetSel(nil)
	dst2.AppendColumns(src)
	if dst2.FullLen() != 20 {
		t.Fatalf("appended %d rows, want 20", dst2.FullLen())
	}
	for i, r := range rows {
		eqRow(t, dst2, i, r)
	}
}

func TestColumnsResetRecycles(t *testing.T) {
	c := NewColumns(2)
	c.AppendRows(colRows(100, 0)[:100])
	c.SetSel([]int32{1, 2})
	c.Reset(3)
	if c.NumCols() != 3 || c.FullLen() != 0 || c.Len() != 0 || c.Sel() != nil {
		t.Fatalf("after Reset: cols=%d full=%d len=%d sel=%v", c.NumCols(), c.FullLen(), c.Len(), c.Sel())
	}
	// The recycled set must accept a different shape cleanly.
	r := Tuple{value.NewString("s"), value.NewInt(1), value.NewFloat(2)}
	c.AppendRow(r)
	eqRow(t, c, 0, r)
}

// noStaleHeaders fails when any string vector of c holds a non-empty
// header anywhere in its backing array beyond the live rows.
func noStaleHeaders(t *testing.T, c *Columns, when string) {
	t.Helper()
	for ci := 0; ci < c.NumCols(); ci++ {
		s := c.Col(ci).Strs()
		for i, h := range s[len(s):cap(s)] {
			if h != "" {
				t.Fatalf("%s: col %d holds stale header %q at %d (len %d, cap %d)", when, ci, h, len(s)+i, len(s), cap(s))
			}
		}
	}
}

// TestResetLeavesNoStaleHeaders pins the invariant ColVec.reset relies
// on to clear only the live prefix: every write path appends onto a
// zeroed tail, so after any append/gather/decode/reset sequence — also
// across kind changes, NULL backfills and shrinking refills — nothing
// non-empty sits in [len:cap], and right after a Reset nothing non-empty
// sits anywhere in [0:cap]. A pooled vector therefore cannot pin
// payloads it no longer exposes.
func TestResetLeavesNoStaleHeaders(t *testing.T) {
	rows := colRows(300, 7)
	src := NewColumns(4)
	src.AppendRows(rows)
	idxs := make([]int32, 0, 150)
	for i := 0; i < 300; i += 2 {
		idxs = append(idxs, int32(i))
	}
	frame := src.AppendFrame(nil)
	strFirst := Tuple{value.NewString("lead"), value.NewString("s"), value.Value{}, value.NewString("tail")}

	c := NewColumns(4)
	fills := []struct {
		name string
		fill func()
	}{
		{"AppendRows", func() { c.AppendRows(rows) }},
		{"AppendRow short", func() {
			for _, r := range rows[:9] {
				c.AppendRow(r)
			}
		}},
		{"gather", func() {
			for ci := 0; ci < 4; ci++ {
				c.AppendColumnGather(ci, src, ci, idxs)
			}
			c.AddRows(len(idxs))
		}},
		{"strings in every column", func() { c.AppendRow(strFirst); c.AppendRow(strFirst) }},
		{"AppendColumns", func() { c.AppendColumns(src) }},
		{"DecodeFrame", func() {
			if _, err := c.DecodeFrame(frame); err != nil {
				t.Fatal(err)
			}
		}},
		{"null-led string column", func() {
			c.AppendRow(Tuple{value.Value{}, value.Value{}, value.Value{}, value.Value{}})
			c.AppendRow(strFirst)
		}},
	}
	// Every ordered pair of fills, so each path runs over a backing array
	// every other path left behind.
	for _, a := range fills {
		for _, b := range fills {
			for _, f := range []struct {
				name string
				fill func()
			}{a, b} {
				f.fill()
				noStaleHeaders(t, c, "after "+f.name)
				c.Reset(4)
				for ci := 0; ci < 4; ci++ {
					if s := c.Col(ci).Strs(); len(s) != 0 {
						t.Fatalf("Reset after %s left %d live headers in col %d", f.name, len(s), ci)
					}
				}
				noStaleHeaders(t, c, "Reset after "+f.name)
			}
		}
	}
}

func TestColumnsReserveAdoptsCapacity(t *testing.T) {
	c := NewColumns(2)
	c.Reserve(500)
	c.AppendRow(Tuple{value.NewInt(1), value.NewString("a")})
	if got := cap(c.Col(0).Ints()); got < 500 {
		t.Errorf("int vector adopted with cap %d, want >= 500", got)
	}
	if got := cap(c.Col(1).Strs()); got < 500 {
		t.Errorf("string vector adopted with cap %d, want >= 500", got)
	}
}

func TestMemBytesRowMatchesTuple(t *testing.T) {
	rows := colRows(50, 4)
	c := NewColumns(4)
	c.AppendRows(rows)
	// A mixed-kind column (boxed storage) sizes its string cells too.
	rows[3][0], rows[8][0] = value.NewString("boxed-now"), value.Value{}
	c.Reset(4)
	c.AppendRows(rows)
	all := c.MemBytesRows(make([]int32, 2)) // a too-small buffer is regrown
	if len(all) != len(rows) {
		t.Fatalf("MemBytesRows sized %d rows, want %d", len(all), len(rows))
	}
	for i, r := range rows {
		if int(all[i]) != r.MemBytes() {
			t.Fatalf("row %d: MemBytesRows=%d, Tuple.MemBytes=%d", i, all[i], r.MemBytes())
		}
	}
}

// TestAppendRangeAndGather: the two bulk copies a scan makes of a block
// — a physical row range, a gathered index list — reproduce the rows
// for every column shape (typed, NULL-bearing, mixed-kind), onto empty
// and non-empty destinations.
func TestAppendRangeAndGather(t *testing.T) {
	for _, nullEvery := range []int{0, 5} {
		rows := colRows(40, nullEvery)
		rows[9][1] = value.NewString("mixed") // column 1 demotes to boxed
		src := NewColumns(4)
		src.AppendRows(rows)
		src.SetSel([]int32{2}) // a selection on the source is ignored by both

		dst := NewColumns(4)
		dst.AppendRange(src, 30, 40)
		dst.AppendRange(src, 0, 12)
		dst.AppendRange(src, 5, 5)
		want := append(append([]Tuple{}, rows[30:40]...), rows[0:12]...)
		idxs := []int32{39, 9, 9, 0}
		dst.AppendGather(src, idxs)
		for _, i := range idxs {
			want = append(want, rows[i])
		}
		if dst.FullLen() != len(want) || dst.Sel() != nil {
			t.Fatalf("nullEvery=%d: %d rows (sel %v), want %d and no selection", nullEvery, dst.FullLen(), dst.Sel(), len(want))
		}
		for i, r := range want {
			eqRow(t, dst, i, r)
		}
	}
}

// TestViewSharesVectors: a view narrows a set it does not own without
// touching it.
func TestViewSharesVectors(t *testing.T) {
	rows := colRows(10, 0)
	c := NewColumns(4)
	c.AppendRows(rows)
	v := c.View([]int32{4, 7})
	if v.Len() != 2 || v.FullLen() != 10 || c.Sel() != nil || c.Len() != 10 {
		t.Fatalf("view Len=%d FullLen=%d, owner Sel=%v Len=%d", v.Len(), v.FullLen(), c.Sel(), c.Len())
	}
	eqRow(t, v, 7, rows[7])
	if &v.Col(0).Ints()[0] != &c.Col(0).Ints()[0] {
		t.Fatalf("view copied the vectors")
	}
	if all := c.View(nil); all.Len() != 10 {
		t.Fatalf("nil-selection view has %d live rows, want 10", all.Len())
	}
}

// TestNarrowSel: a batch kernel narrows through the recycled backing,
// in place on the second pass, and "no survivors" never reads as "all".
func TestNarrowSel(t *testing.T) {
	c := NewColumns(1)
	for i := 0; i < 8; i++ {
		c.AppendRow(Tuple{value.NewInt(int64(i))})
	}
	keep := func(ok func(int32) bool) func(sel, buf []int32) []int32 {
		return func(sel, buf []int32) []int32 {
			if sel == nil {
				for i := int32(0); i < 8; i++ {
					if ok(i) {
						buf = append(buf, i)
					}
				}
				return buf
			}
			for _, i := range sel {
				if ok(i) {
					buf = append(buf, i)
				}
			}
			return buf
		}
	}
	c.NarrowSel(keep(func(i int32) bool { return i%2 == 1 }))
	first := c.Sel()
	c.NarrowSel(keep(func(i int32) bool { return i > 2 }))
	if got := c.Sel(); len(got) != 3 || got[0] != 3 || got[2] != 7 || &got[0] != &first[0] {
		t.Fatalf("second narrowing gave %v (in place: %v)", got, len(got) > 0 && &got[0] == &first[0])
	}
	c.SetSel(nil)
	fresh := NewColumns(1)
	fresh.AppendRow(Tuple{value.NewInt(1)})
	fresh.NarrowSel(func(sel, buf []int32) []int32 { return buf })
	if fresh.Sel() == nil || fresh.Len() != 0 {
		t.Fatalf("zero survivors: Sel=%v Len=%d, want empty non-nil", fresh.Sel(), fresh.Len())
	}
}
