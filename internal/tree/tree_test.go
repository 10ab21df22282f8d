package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptdb/internal/block"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "a", Kind: value.Int},
	schema.Column{Name: "b", Kind: value.Int},
	schema.Column{Name: "c", Kind: value.Int},
)

// figure3Tree builds the paper's Figure 3(a) shape: root on A, then B|C,
// with 8 leaves 0..7.
func figure3Tree() *Tree {
	leaf := func(b block.ID) *Node { return &Node{Leaf: true, Bucket: b} }
	iv := func(i int64) value.Value { return value.NewInt(i) }
	root := &Node{
		Attr: 0, Cut: iv(50),
		Left: &Node{
			Attr: 1, Cut: iv(30),
			Left:  &Node{Attr: 2, Cut: iv(10), Left: leaf(0), Right: leaf(1)},
			Right: &Node{Attr: 2, Cut: iv(10), Left: leaf(2), Right: leaf(3)},
		},
		Right: &Node{
			Attr: 1, Cut: iv(70),
			Left:  &Node{Attr: 2, Cut: iv(10), Left: leaf(4), Right: leaf(5)},
			Right: &Node{Attr: 2, Cut: iv(10), Left: leaf(6), Right: leaf(7)},
		},
	}
	return NewWithRoot(sch, root, -1, 0)
}

func row(a, b, c int64) tuple.Tuple {
	return tuple.Tuple{value.NewInt(a), value.NewInt(b), value.NewInt(c)}
}

func TestRoute(t *testing.T) {
	tr := figure3Tree()
	cases := []struct {
		tp   tuple.Tuple
		want block.ID
	}{
		{row(10, 10, 5), 0},  // a≤50, b≤30, c≤10
		{row(10, 10, 50), 1}, // a≤50, b≤30, c>10
		{row(10, 40, 5), 2},
		{row(10, 40, 50), 3},
		{row(90, 60, 5), 4},
		{row(90, 60, 50), 5},
		{row(90, 80, 5), 6},
		{row(90, 80, 50), 7},
		{row(50, 30, 10), 0}, // boundary: ≤ goes left everywhere
	}
	for _, c := range cases {
		if got := tr.Route(c.tp); got != c.want {
			t.Errorf("Route(%v) = %d, want %d", c.tp, got, c.want)
		}
	}
}

func TestBucketsAndDepth(t *testing.T) {
	tr := figure3Tree()
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
	if tr.NumBuckets() != 8 {
		t.Errorf("NumBuckets = %d", tr.NumBuckets())
	}
	if tr.NextBucket() != 8 {
		t.Errorf("NextBucket = %d, want 8", tr.NextBucket())
	}
}

func TestLookupPrunes(t *testing.T) {
	tr := figure3Tree()
	// a > 50 keeps only the right half (buckets 4..7): skips 50% as §3.1 says.
	got := tr.Lookup([]predicate.Predicate{predicate.NewCmp(0, predicate.GT, value.NewInt(50))})
	if len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Errorf("Lookup(a>50) = %v", got)
	}
	// a ≤ 50 AND b ≤ 30: buckets 0,1.
	got = tr.Lookup([]predicate.Predicate{
		predicate.NewCmp(0, predicate.LE, value.NewInt(50)),
		predicate.NewCmp(1, predicate.LE, value.NewInt(30)),
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Lookup(a<=50,b<=30) = %v", got)
	}
	// No predicates: everything.
	if got = tr.Lookup(nil); len(got) != 8 {
		t.Errorf("Lookup(nil) = %v", got)
	}
	// Point query routes to exactly one bucket per attribute chain.
	got = tr.Lookup([]predicate.Predicate{
		predicate.NewCmp(0, predicate.EQ, value.NewInt(10)),
		predicate.NewCmp(1, predicate.EQ, value.NewInt(10)),
		predicate.NewCmp(2, predicate.EQ, value.NewInt(5)),
	})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("point lookup = %v", got)
	}
}

// Property: Lookup is sound — the bucket Route() assigns to a tuple
// always appears in Lookup(preds) whenever the tuple matches preds.
func TestLookupSoundQuick(t *testing.T) {
	tr := figure3Tree()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := row(rng.Int63n(100), rng.Int63n(100), rng.Int63n(60))
		ops := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
		var preds []predicate.Predicate
		for i := 0; i < rng.Intn(4); i++ {
			preds = append(preds, predicate.NewCmp(rng.Intn(3), ops[rng.Intn(len(ops))], value.NewInt(rng.Int63n(100))))
		}
		if !predicate.MatchesAll(preds, tp) {
			return true
		}
		want := tr.Route(tp)
		for _, b := range tr.Lookup(preds) {
			if b == want {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrLevels(t *testing.T) {
	tr := figure3Tree()
	al := tr.AttrLevels()
	if al[0] != 1 || al[1] != 2 || al[2] != 4 {
		t.Errorf("AttrLevels = %v, want map[0:1 1:2 2:4]", al)
	}
}

func TestString(t *testing.T) {
	tr := NewWithRoot(sch, &Node{Leaf: true}, -1, 0)
	if tr.String() != "b0" {
		t.Errorf("leaf String = %q", tr.String())
	}
	tr = NewWithRoot(sch, &Node{Attr: 0, Cut: value.NewInt(5), Left: &Node{Leaf: true, Bucket: 0}, Right: &Node{Leaf: true, Bucket: 1}}, -1, 0)
	want := "(a<=5 b0 b1)"
	if tr.String() != want {
		t.Errorf("String = %q, want %q", tr.String(), want)
	}
}

// Property: the batch router (typed cells against the cut points, one
// partition per node) lands every row in the bucket the boxed route
// picks — NULL cuts and cells, NaN/−0 floats, a mixed-kind (boxed)
// column, an all-NULL column and cuts of another kind than the column
// included.
func TestRouteColsMatchesRouteQuick(t *testing.T) {
	f := func(seed int64) bool { return checkRouteCols(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if !checkRouteCols(t, -1) { // seed -1 routes an empty input
		t.Fatal("empty input")
	}
}

// FuzzRouteCols widens TestRouteColsMatchesRouteQuick: the fuzzer picks
// the seed that shapes the tree, the cuts and the rows.
func FuzzRouteCols(f *testing.F) {
	for seed := int64(-1); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if !checkRouteCols(t, seed) {
			t.Fatal("RouteCols disagrees with Route")
		}
	})
}

// checkRouteCols routes a seeded random row set through a seeded random
// tree over five columns — ints (NULL-bearing for some seeds), floats
// with NaN and −0, strings that some seeds mix with ints, an all-NULL
// column and dates — and reports whether RouteCols agrees with Route on
// every row. Seed -1 makes the row set empty.
func checkRouteCols(t testing.TB, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	nullInts, mixed := rng.Intn(2) == 0, rng.Intn(2) == 0
	cell := func(col int) value.Value {
		switch col {
		case 0:
			if nullInts && rng.Intn(8) == 0 {
				return value.Value{}
			}
			return value.NewInt(rng.Int63n(100))
		case 1:
			return value.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, 40, 90}[rng.Intn(6)])
		case 2:
			if mixed && rng.Intn(3) == 0 {
				return value.NewInt(rng.Int63n(3))
			}
			return value.NewString(string(rune('a' + rng.Intn(3))))
		case 3:
			return value.Value{}
		}
		return value.NewDate(rng.Int63n(100))
	}
	const ncols = 5
	var next block.ID
	var grow func(depth int) *Node
	grow = func(depth int) *Node {
		if depth == 0 || rng.Intn(4) == 0 {
			next++
			return &Node{Leaf: true, Bucket: next - 1}
		}
		n := &Node{Attr: rng.Intn(ncols)}
		n.Cut = cell(n.Attr)
		if rng.Intn(4) == 0 {
			n.Cut = cell(rng.Intn(ncols)) // a cut of another column's kind
		}
		n.Left, n.Right = grow(depth-1), grow(depth-1)
		return n
	}
	tr := NewWithRoot(schema.MustNew(
		schema.Column{Name: "i", Kind: value.Int},
		schema.Column{Name: "f", Kind: value.Float},
		schema.Column{Name: "s", Kind: value.String},
		schema.Column{Name: "n", Kind: value.Int},
		schema.Column{Name: "d", Kind: value.Date},
	), grow(1+rng.Intn(5)), -1, 0)
	rows := make([]tuple.Tuple, rng.Intn(120))
	if seed == -1 {
		rows = nil
	}
	for i := range rows {
		rows[i] = make(tuple.Tuple, ncols)
		for c := range rows[i] {
			rows[i][c] = cell(c)
		}
	}
	cols := tuple.NewColumns(ncols)
	cols.AppendRows(rows)
	dst := make([]block.ID, len(rows))
	for i := range dst {
		dst[i] = -1
	}
	tr.RouteCols(cols, dst)
	for i, r := range rows {
		if want := tr.Route(r); dst[i] != want {
			t.Logf("seed %d, tree %v, row %d %v: RouteCols %d, Route %d", seed, tr, i, r, dst[i], want)
			return false
		}
	}
	return true
}
