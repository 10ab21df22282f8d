package upfront

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptdb/internal/block"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "a", Kind: value.Int},
	schema.Column{Name: "b", Kind: value.Int},
	schema.Column{Name: "c", Kind: value.Int},
	schema.Column{Name: "d", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
		}
	}
	return rows
}

func TestDepthForBlocks(t *testing.T) {
	cases := []struct{ rows, per, want int }{
		{100, 100, 0},
		{100, 200, 0},
		{200, 100, 1},
		{300, 100, 2},
		{1600, 100, 4},
		{1000, 0, 0},
	}
	for _, c := range cases {
		if got := DepthForBlocks(c.rows, c.per); got != c.want {
			t.Errorf("DepthForBlocks(%d, %d) = %d, want %d", c.rows, c.per, got, c.want)
		}
	}
}

func TestBuildProducesBalancedTree(t *testing.T) {
	rows := genRows(4096, 1)
	tr := Builder{Schema: sch, Depth: 4, Seed: 7}.Build(rows)
	if tr.NumBuckets() != 16 {
		t.Fatalf("buckets = %d, want 16", tr.NumBuckets())
	}
	if tr.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", tr.Depth())
	}
	if tr.JoinAttr != -1 {
		t.Errorf("upfront tree should have no join attribute")
	}
	// Buckets should be roughly balanced thanks to median cuts.
	parts := Partition(tr, rows)
	want := len(rows) / 16
	for b, blk := range parts {
		if blk.Len() < want/3 || blk.Len() > want*3 {
			t.Errorf("bucket %d has %d rows, want ≈%d", b, blk.Len(), want)
		}
	}
}

func TestHeterogeneousBranchingUsesAllAttributes(t *testing.T) {
	rows := genRows(4096, 2)
	// Depth 4 over 4 attributes: the balancing rule should give each
	// attribute close to 15/4 splits.
	tr := Builder{Schema: sch, Depth: 4, Seed: 3}.Build(rows)
	levels := tr.AttrLevels()
	if len(levels) != 4 {
		t.Fatalf("attributes used = %v, want all 4", levels)
	}
	total := 0
	for _, n := range levels {
		total += n
	}
	if total != 15 { // 2^4 - 1 internal nodes
		t.Fatalf("internal nodes = %d, want 15", total)
	}
	for a, n := range levels {
		if n < 2 || n > 6 {
			t.Errorf("attribute %d used %d times; balancing is off: %v", a, n, levels)
		}
	}
}

func TestBuildRestrictedAttrs(t *testing.T) {
	rows := genRows(1024, 3)
	tr := Builder{Schema: sch, Attrs: []int{1, 2}, Depth: 3, Seed: 1}.Build(rows)
	for a := range tr.AttrLevels() {
		if a != 1 && a != 2 {
			t.Errorf("tree split on disallowed attribute %d", a)
		}
	}
}

func TestBuildDegenerateData(t *testing.T) {
	// All rows identical: no attribute can split, tree must degrade to a
	// single leaf rather than recursing forever.
	rows := make([]tuple.Tuple, 100)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(5), value.NewInt(5), value.NewInt(5), value.NewInt(5)}
	}
	tr := Builder{Schema: sch, Depth: 4, Seed: 1}.Build(rows)
	if tr.NumBuckets() != 1 {
		t.Fatalf("degenerate data should produce 1 bucket, got %d", tr.NumBuckets())
	}
}

func TestBuildBinaryAttribute(t *testing.T) {
	// A two-valued attribute can be split exactly once per path.
	rows := make([]tuple.Tuple, 256)
	rng := rand.New(rand.NewSource(9))
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(2)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
			value.NewInt(rng.Int63n(1000)),
		}
	}
	tr := Builder{Schema: sch, Depth: 4, Seed: 1}.Build(rows)
	// Still a full-ish tree because other attributes absorb the splits.
	if tr.NumBuckets() < 8 {
		t.Errorf("buckets = %d, want ≥ 8", tr.NumBuckets())
	}
}

func TestPartitionRoutesEveryRow(t *testing.T) {
	rows := genRows(2048, 4)
	tr := Builder{Schema: sch, Depth: 3, Seed: 2}.Build(rows)
	parts := Partition(tr, rows)
	total := 0
	for _, blk := range parts {
		total += blk.Len()
	}
	if total != len(rows) {
		t.Fatalf("partitioned %d rows, want %d", total, len(rows))
	}
	// Each block's rows must actually route to that bucket.
	for b, blk := range parts {
		for _, r := range blk.Rows() {
			if tr.Route(r) != b {
				t.Fatalf("row %v in bucket %d routes to %d", r, b, tr.Route(r))
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	rows := genRows(1024, 5)
	t1 := Builder{Schema: sch, Depth: 3, Seed: 42}.Build(rows)
	t2 := Builder{Schema: sch, Depth: 3, Seed: 42}.Build(rows)
	if t1.String() != t2.String() {
		t.Errorf("same seed produced different trees")
	}
}

// Property: predicate lookup on a built tree is sound w.r.t. partitioned
// data — every matching row lives in a looked-up bucket.
func TestLookupSoundOnBuiltTreeQuick(t *testing.T) {
	rows := genRows(2048, 6)
	tr := Builder{Schema: sch, Depth: 4, Seed: 11}.Build(rows)
	parts := Partition(tr, rows)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
		var preds []predicate.Predicate
		for i := 0; i <= rng.Intn(3); i++ {
			preds = append(preds, predicate.NewCmp(rng.Intn(4), ops[rng.Intn(len(ops))], value.NewInt(rng.Int63n(1000))))
		}
		hit := make(map[int32]bool)
		for _, b := range tr.Lookup(preds) {
			hit[int32(b)] = true
		}
		for b, blk := range parts {
			for _, r := range blk.Rows() {
				if predicate.MatchesAll(preds, r) && !hit[int32(b)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refChooseSplit is the exhaustive split search chooseSplit replaced: it
// computes the median cut of every candidate and keeps the first
// least-used splittable one in shuffled order. It is the oracle the
// lazy search must match, RNG draws included.
func refChooseSplit(rows []tuple.Tuple, attrs []int, ways map[int]int, rng *rand.Rand) (attr int, cut value.Value, ok bool) {
	type cand struct {
		attr int
		cut  value.Value
	}
	var best []cand
	bestWays := -1
	order := append([]int(nil), attrs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, a := range order {
		c, can := medianCut(rows, a)
		if !can {
			continue
		}
		w := ways[a]
		switch {
		case bestWays == -1 || w < bestWays:
			bestWays = w
			best = []cand{{a, c}}
		case w == bestWays:
			best = append(best, cand{a, c})
		}
	}
	if len(best) == 0 {
		return 0, value.Value{}, false
	}
	pick := best[0]
	return pick.attr, pick.cut, true
}

// RefGrowNode is GrowNode over refChooseSplit. It is exported for the
// two-phase oracle in package upfront_test.
func RefGrowNode(rows []tuple.Tuple, attrs []int, depth int, ways map[int]int, rng *rand.Rand, alloc func() block.ID) *tree.Node {
	if depth <= 0 {
		return &tree.Node{Leaf: true, Bucket: alloc()}
	}
	attr, cut, ok := refChooseSplit(rows, attrs, ways, rng)
	if !ok {
		return &tree.Node{Leaf: true, Bucket: alloc()}
	}
	ways[attr]++
	var left, right []tuple.Tuple
	for _, t := range rows {
		if value.Compare(t[attr], cut) <= 0 {
			left = append(left, t)
		} else {
			right = append(right, t)
		}
	}
	return &tree.Node{
		Attr:  attr,
		Cut:   cut,
		Left:  RefGrowNode(left, attrs, depth-1, ways, rng, alloc),
		Right: RefGrowNode(right, attrs, depth-1, ways, rng, alloc),
	}
}

// OracleSchema is the column layout of OracleSample.
var OracleSchema = schema.MustNew(
	schema.Column{Name: "tied", Kind: value.Int},
	schema.Column{Name: "const", Kind: value.Int},
	schema.Column{Name: "nullable", Kind: value.Int},
	schema.Column{Name: "str", Kind: value.String},
	schema.Column{Name: "float", Kind: value.Float},
	schema.Column{Name: "maybe_null", Kind: value.Date},
)

// OracleSample is a seeded sample that stresses the split search: a
// column of few, heavily tied values, a constant column, NULL cells in
// ints and strings, NaN and −0 floats, and a column that is all NULL
// for every third seed. Sizes run from empty to 700 rows.
func OracleSample(seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	domain := int64(2 + rng.Intn(6))
	rows := make([]tuple.Tuple, rng.Intn(700))
	for i := range rows {
		r := tuple.Tuple{
			value.NewInt(rng.Int63n(domain)),
			value.NewInt(7),
			value.NewInt(rng.Int63n(50)),
			value.NewString(string(rune('a' + rng.Intn(5)))),
			value.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, 2.5, 9}[rng.Intn(6)]),
			value.Value{},
		}
		if rng.Intn(4) == 0 {
			r[2] = value.Value{}
		}
		if rng.Intn(6) == 0 {
			r[3] = value.Value{}
		}
		if seed%3 != 0 {
			r[5] = value.NewDate(rng.Int63n(1000))
		}
		rows[i] = r
	}
	return rows
}

// The lazy search picks what the exhaustive one picks and leaves the
// RNG where it left it, whatever the ways counts and candidate lists.
func TestChooseSplitMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := OracleSample(seed)
		var attrs []int
		ways := make(map[int]int)
		for a := 0; a < OracleSchema.NumCols(); a++ {
			if rng.Intn(4) != 0 {
				attrs = append(attrs, a)
			}
			if w := rng.Intn(4); w > 0 {
				ways[a] = w
			}
		}
		lazy, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		a, c, ok := chooseSplit(rows, attrs, ways, lazy)
		ra, rc, rok := refChooseSplit(rows, attrs, ways, ref)
		if a != ra || ok != rok || !bytes.Equal(c.AppendBinary(nil), rc.AppendBinary(nil)) {
			t.Fatalf("seed %d attrs %v ways %v: lazy (%d, %v, %v), exhaustive (%d, %v, %v)", seed, attrs, ways, a, c, ok, ra, rc, rok)
		}
		if lazy.Int63() != ref.Int63() {
			t.Fatalf("seed %d: the searches left the RNG in different states", seed)
		}
	}
}
