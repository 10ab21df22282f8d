package recycle

import (
	"fmt"
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// TestRecycleClasses: every class a get picks holds the rows asked for,
// by at most twice as many, and storage is filed under a class it
// fills, so a get of that class finds enough.
func TestRecycleClasses(t *testing.T) {
	for n := 1; n < 1<<20; n += 1 + n/97 {
		c := Class(n)
		if size := 1 << c; size < n || size >= 2*max(n, 1<<MinClass) {
			t.Fatalf("%d rows take class %d of %d rows", n, c, size)
		}
		if f := FileClass(1 << c); f != c {
			t.Fatalf("class %d's own size files under class %d", c, f)
		}
		if f := FileClass(n); f >= 0 && 1<<f > n {
			t.Fatalf("capacity %d files under class %d of %d rows", n, f, 1<<f)
		}
	}
}

// TestGrowStoreWritesInPlace pins GrowStore and Cap: a store with rows
// and an all-NULL column (a validity bitmap and no kind) grown to n
// rows moves its rows into storage Cap reports as holding n, every
// append up to n writes into the same vectors, the rows read back, and
// a store that already holds n is returned as it is.
func TestGrowStoreWritesInPlace(t *testing.T) {
	rows := make([]tuple.Tuple, 60)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(int64(i)), value.NewFloat(float64(i) / 2), value.NewString(fmt.Sprint("s", i)), value.Value{}}
	}
	c := tuple.NewColumns(4)
	c.AppendRows(rows[:20])
	g := GrowStore(c, c, 200)
	if g.Cap() < 200 || g.FullLen() != 20 {
		t.Fatalf("grown store holds %d rows, Cap %d, want 20 rows and Cap ≥ 200", g.FullLen(), g.Cap())
	}
	ints, strs, valid := &g.Col(0).Ints()[0], &g.Col(2).Strs()[0], &g.Col(3).Valid()[0]
	src := tuple.NewColumns(4)
	src.AppendRows(rows[20:])
	g.AppendRange(src, 0, 30)
	g.AppendGather(src, []int32{39, 0, 5})
	if &g.Col(0).Ints()[0] != ints || &g.Col(2).Strs()[0] != strs || &g.Col(3).Valid()[0] != valid {
		t.Fatal("an append within the grown capacity reallocated")
	}
	want := append(append([]tuple.Tuple(nil), rows[:50]...), rows[59], rows[20], rows[25])
	for i, r := range want {
		for ci := range r {
			if got := g.Value(ci, i); value.Compare(got, r[ci]) != 0 || g.IsNull(ci, i) != r[ci].IsNull() {
				t.Fatalf("row %d col %d = %v, want %v", i, ci, got, r[ci])
			}
		}
	}
	if GrowStore(g, g, 10) != g {
		t.Fatal("a store that holds the rows asked for moved")
	}
}
