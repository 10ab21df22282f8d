package block

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptdb/internal/predicate"
	"adaptdb/internal/recycle"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "k", Kind: value.Int},
	schema.Column{Name: "p", Kind: value.Float},
	schema.Column{Name: "s", Kind: value.String},
)

func row(k int64, p float64, s string) tuple.Tuple {
	return tuple.Tuple{value.NewInt(k), value.NewFloat(p), value.NewString(s)}
}

func TestZoneMapMaintenance(t *testing.T) {
	b := New(sch)
	if b.Len() != 0 {
		t.Fatalf("new block not empty")
	}
	b.AppendRows([]tuple.Tuple{row(5, 2.5, "m"), row(1, 9.5, "z"), row(8, 0.5, "a")})
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Min(0).Int64() != 1 || b.Max(0).Int64() != 8 {
		t.Errorf("int zone map wrong: [%v, %v]", b.Min(0), b.Max(0))
	}
	if b.Min(1).Float64() != 0.5 || b.Max(1).Float64() != 9.5 {
		t.Errorf("float zone map wrong")
	}
	if b.Min(2).Str() != "a" || b.Max(2).Str() != "z" {
		t.Errorf("string zone map wrong")
	}
}

func TestZoneMapIgnoresNulls(t *testing.T) {
	b := New(sch)
	b.AppendRows([]tuple.Tuple{{value.NewInt(5), {}, value.NewString("x")}, {value.NewInt(3), {}, value.NewString("y")}})
	if !b.Min(1).IsNull() {
		t.Errorf("all-null column should have null min")
	}
	if !b.Range(1).Empty() {
		t.Errorf("all-null column range should be empty")
	}
	if b.Min(0).Int64() != 3 {
		t.Errorf("non-null column unaffected")
	}
}

func TestRange(t *testing.T) {
	b := New(sch)
	if !b.Range(0).Empty() {
		t.Errorf("empty block should have empty range")
	}
	b.AppendRows([]tuple.Tuple{row(10, 1, "a"), row(20, 1, "a")})
	r := b.Range(0)
	if r != predicate.Closed(value.NewInt(10), value.NewInt(20)) {
		t.Errorf("range should be [10,20]: %v", r)
	}
	if !b.Range(99).Empty() {
		t.Errorf("out-of-range column should be empty range")
	}
}

func TestMaybeMatches(t *testing.T) {
	b := New(sch)
	b.AppendRows([]tuple.Tuple{row(10, 5, "a"), row(20, 6, "b")})
	match := predicate.ColumnRanges([]predicate.Predicate{
		predicate.NewCmp(0, GEQ(), value.NewInt(15)),
	})
	if !b.MaybeMatches(match) {
		t.Errorf("block overlapping predicate range should match")
	}
	miss := predicate.ColumnRanges([]predicate.Predicate{
		predicate.NewCmp(0, GEQ(), value.NewInt(100)),
	})
	if b.MaybeMatches(miss) {
		t.Errorf("block outside predicate range should not match")
	}
	if New(sch).MaybeMatches(nil) {
		t.Errorf("empty block should never match")
	}
}

func GEQ() predicate.Op { return predicate.GE }

// Property: MaybeMatches never prunes a block containing a matching
// tuple (soundness of zone maps).
func TestMaybeMatchesSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(sch)
		var rows []tuple.Tuple
		for i := 0; i < 1+rng.Intn(20); i++ {
			tp := row(rng.Int63n(100), rng.Float64()*100, string(rune('a'+rng.Intn(26))))
			rows = append(rows, tp)
			b.AppendRows([]tuple.Tuple{tp})
		}
		ops := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
		preds := []predicate.Predicate{
			predicate.NewCmp(0, ops[rng.Intn(len(ops))], value.NewInt(rng.Int63n(100))),
			predicate.NewCmp(1, ops[rng.Intn(len(ops))], value.NewFloat(rng.Float64()*100)),
		}
		anyMatch := false
		for _, tp := range rows {
			if predicate.MatchesAll(preds, tp) {
				anyMatch = true
				break
			}
		}
		if anyMatch && !b.MaybeMatches(predicate.ColumnRanges(preds)) {
			return false // pruned a block with matches: unsound
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaOf(t *testing.T) {
	b := New(sch)
	b.AppendRows([]tuple.Tuple{row(10, 5, "a"), row(20, 6, "b")})
	m := MetaOf(7, b)
	if m.ID != 7 || m.Count != 2 {
		t.Errorf("meta header wrong: %+v", m)
	}
	if m.Range(0).String() != b.Range(0).String() {
		t.Errorf("meta range != block range")
	}
	miss := predicate.ColumnRanges([]predicate.Predicate{predicate.NewCmp(0, predicate.GT, value.NewInt(50))})
	if m.MaybeMatches(miss) {
		t.Errorf("meta should prune like the block")
	}
	empty := MetaOf(1, New(sch))
	if empty.MaybeMatches(nil) {
		t.Errorf("empty meta should never match")
	}
	if !empty.Range(0).Empty() {
		t.Errorf("empty meta range should be empty")
	}
}

// viaFrame round-trips a block through its one serialized form: the
// column-major run frame of its vectors, decoded and gathered back.
func viaFrame(t *testing.T, b *Block) *Block {
	t.Helper()
	cols := tuple.NewColumns(0)
	if _, err := cols.DecodeFrame(b.Cols().AppendFrame(nil)); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	got := New(sch)
	got.AppendGather(cols, identity(cols.FullLen()))
	return got
}

func identity(n int) []int32 {
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

func TestSerializeRoundTrip(t *testing.T) {
	b := New(sch)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		b.AppendRows([]tuple.Tuple{row(rng.Int63n(1000), rng.Float64(), "str")})
	}
	got := viaFrame(t, b)
	if !reflect.DeepEqual(got.Rows(), b.Rows()) {
		t.Fatalf("rows differ after the frame round trip")
	}
	// Zone maps rebuilt identically.
	if !reflect.DeepEqual(MetaOf(0, got), MetaOf(0, b)) {
		t.Errorf("zone map differs after decode: %+v vs %+v", MetaOf(0, got), MetaOf(0, b))
	}
}

func TestSerializeEmpty(t *testing.T) {
	got := viaFrame(t, New(sch))
	if got.Len() != 0 {
		t.Fatalf("empty round trip has %d tuples", got.Len())
	}
	if !got.Range(0).Empty() || got.MaybeMatches(nil) {
		t.Errorf("empty round trip is not an empty block")
	}
}

// randCell draws a cell for a column of the given flavour: the typed
// flavours stay one kind (plus NULLs), "mixed" crosses kinds so the
// column demotes to boxed storage.
func randCell(rng *rand.Rand, flavour int) value.Value {
	if rng.Intn(6) == 0 {
		return value.Value{}
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, -1.5, 2.5, math.Inf(1), math.Inf(-1)}
	switch flavour {
	case 0:
		return value.NewInt(rng.Int63n(20) - 10)
	case 1:
		return value.NewFloat(floats[rng.Intn(len(floats))])
	case 2:
		return value.NewString(string(rune('a' + rng.Intn(5))))
	case 3:
		return value.NewDate(rng.Int63n(20))
	case 4:
		return value.NewBool(rng.Intn(2) == 0)
	case 5:
		return value.Value{} // an all-NULL column
	default:
		return randCell(rng, rng.Intn(5))
	}
}

// Property: however a block is assembled — Append, AppendRows and
// AppendGather in any interleaving — its rows are the input in order and
// its zone map is the one the boxed row-at-a-time fold produces, cell
// for cell (same kind, same payload: the first-seen extreme wins ties
// such as -0.0 vs +0.0 or two NaNs).
func TestAnyInterleavingMatchesRowBuiltZoneMap(t *testing.T) {
	const ncols = 7
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Block
		var want []tuple.Tuple
		mins := make([]value.Value, ncols)
		maxs := make([]value.Value, ncols)
		draw := func(n int) []tuple.Tuple {
			rows := make([]tuple.Tuple, n)
			for i := range rows {
				rows[i] = make(tuple.Tuple, ncols)
				for c := range rows[i] {
					v := randCell(rng, c)
					rows[i][c] = v
					if v.IsNull() {
						continue
					}
					if mins[c].IsNull() || value.Less(v, mins[c]) {
						mins[c] = v
					}
					if maxs[c].IsNull() || value.Less(maxs[c], v) {
						maxs[c] = v
					}
				}
			}
			want = append(want, rows...)
			return rows
		}
		for step := 0; step < 1+rng.Intn(8); step++ {
			switch rng.Intn(3) {
			case 0:
				b.AppendRows(draw(1))
			case 1:
				b.AppendRows(draw(rng.Intn(6)))
			default:
				// Gather the drawn rows out of a larger shuffled source.
				rows := draw(rng.Intn(6))
				src := tuple.NewColumns(ncols)
				pad := make(tuple.Tuple, ncols)
				idxs := make([]int32, len(rows))
				for i, r := range rows {
					src.AppendRow(pad)
					src.AppendRow(r)
					idxs[i] = int32(2*i + 1)
				}
				b.AppendGather(src, idxs)
			}
		}
		if b.Len() != len(want) {
			return false
		}
		for i, r := range b.Rows() {
			for c := range r {
				if !sameCell(r[c], want[i][c]) {
					t.Logf("seed %d: row %d col %d is %v, want %v", seed, i, c, r[c], want[i][c])
					return false
				}
			}
		}
		m := MetaOf(0, &b)
		for c := 0; c < len(m.Mins); c++ {
			if !sameCell(m.Mins[c], mins[c]) || !sameCell(m.Maxs[c], maxs[c]) {
				t.Logf("seed %d col %d: zone [%v, %v], row-built [%v, %v]", seed, c, m.Mins[c], m.Maxs[c], mins[c], maxs[c])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sameCell is bit-level equality (NaN payloads and the sign of zero
// included), stricter than value.Equal.
func sameCell(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestReleaseHandsStorageBack: a released block is empty and takes rows
// again, and its storage has gone to the recycler — with poisoning on,
// a view taken before the release reads sentinels, not the rows it saw.
// A growing block hands back the storage it outgrew the same way.
func TestReleaseHandsStorageBack(t *testing.T) {
	defer func(p bool) { recycle.Poison = p }(recycle.Poison)
	recycle.Poison = true
	rows := make([]tuple.Tuple, 100)
	for i := range rows {
		rows[i] = row(int64(i), float64(i)/2, string(rune('a'+i%26)))
	}
	viewOf := func(b *Block) *tuple.Columns {
		var v tuple.Columns
		v.AliasRange(b.Cols(), 0, b.Len())
		return &v
	}
	poisoned := func(what string, v *tuple.Columns) {
		t.Helper()
		if v.Col(0).Ints()[7] != recycle.PoisonInt || v.Col(1).Floats()[7] != recycle.PoisonFloat || v.Col(2).Str(7) != recycle.PoisonStr {
			t.Fatalf("%s: a view of the handed-back storage still reads row 7: %v", what, v.RowTo(nil, 7))
		}
	}

	b := New(sch)
	b.AppendRows(rows)
	view := viewOf(b)
	b.Release()
	poisoned("release", view)
	if b.Len() != 0 || len(b.Rows()) != 0 || !b.Range(0).Empty() {
		t.Fatalf("a released block holds %d rows, zone %v", b.Len(), b.Range(0))
	}
	b.AppendRows(rows[:70])
	if got := b.Rows(); !reflect.DeepEqual(got, rows[:70]) || b.Max(0).Int64() != 69 {
		t.Fatalf("a released block refilled holds %v, max %v", got, b.Max(0))
	}

	view = viewOf(b)
	src := tuple.NewColumns(sch.NumCols())
	src.AppendRows(rows)
	idxs := make([]int32, len(rows))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	b.AppendGather(src, idxs)
	poisoned("growth", view)
	if got := b.Rows(); !reflect.DeepEqual(got[:70], rows[:70]) || !reflect.DeepEqual(got[70:], rows) {
		t.Fatal("a block grown into recycled storage lost or changed rows")
	}
}
