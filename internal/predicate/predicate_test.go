package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func iv(i int64) value.Value { return value.NewInt(i) }

// contains reports whether v lies inside r: r overlaps the point [v, v].
func contains(r Range, v value.Value) bool { return r.Overlaps(Closed(v, v)) }

func TestPredicateMatches(t *testing.T) {
	tp := tuple.Tuple{iv(10), value.NewString("APPLE")}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{NewCmp(0, EQ, iv(10)), true},
		{NewCmp(0, EQ, iv(11)), false},
		{NewCmp(0, NE, iv(11)), true},
		{NewCmp(0, NE, iv(10)), false},
		{NewCmp(0, LT, iv(11)), true},
		{NewCmp(0, LT, iv(10)), false},
		{NewCmp(0, LE, iv(10)), true},
		{NewCmp(0, GT, iv(9)), true},
		{NewCmp(0, GT, iv(10)), false},
		{NewCmp(0, GE, iv(10)), true},
		{NewIn(1, value.NewString("PEAR"), value.NewString("APPLE")), true},
		{NewIn(1, value.NewString("PEAR")), false},
		{NewIn(1), false},
	}
	for _, c := range cases {
		if got := c.p.Matches(tp); got != c.want {
			t.Errorf("%v.Matches = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMatchesAll(t *testing.T) {
	tp := tuple.Tuple{iv(10), iv(20)}
	both := []Predicate{NewCmp(0, GE, iv(10)), NewCmp(1, LT, iv(25))}
	if !MatchesAll(both, tp) {
		t.Errorf("conjunction should match")
	}
	if !MatchesAll(nil, tp) {
		t.Errorf("empty conjunction should match everything")
	}
	fail := append(both, NewCmp(1, GT, iv(100)))
	if MatchesAll(fail, tp) {
		t.Errorf("failing conjunct ignored")
	}
}

func TestRangeContains(t *testing.T) {
	r := Closed(iv(10), iv(20))
	for _, c := range []struct {
		v    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := contains(r, iv(c.v)); got != c.want {
			t.Errorf("contains(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	open := Range{HasLo: true, Lo: iv(10), LoOpen: true, HasHi: true, Hi: iv(20), HiOpen: true}
	if contains(open, iv(10)) || contains(open, iv(20)) {
		t.Errorf("open bounds included endpoints")
	}
	if !contains(Unbounded(), iv(-1<<60)) {
		t.Errorf("unbounded should contain anything")
	}
}

func TestRangeEmpty(t *testing.T) {
	if Closed(iv(1), iv(2)).Empty() {
		t.Errorf("[1,2] reported empty")
	}
	if !Closed(iv(3), iv(2)).Empty() {
		t.Errorf("[3,2] not reported empty")
	}
	if Point(iv(5)).Empty() {
		t.Errorf("point range reported empty")
	}
	halfOpenPoint := Range{HasLo: true, Lo: iv(5), LoOpen: true, HasHi: true, Hi: iv(5)}
	if !halfOpenPoint.Empty() {
		t.Errorf("(5,5] not reported empty")
	}
	if Unbounded().Empty() {
		t.Errorf("unbounded reported empty")
	}
}

func TestRangeOverlaps(t *testing.T) {
	// Mirrors the hyper-join Figure 4 intervals: r2=[100,200) vs s1=[0,150) overlap,
	// r1=[0,100) vs s2=[150,250) do not.
	r1 := Range{HasLo: true, Lo: iv(0), HasHi: true, Hi: iv(100), HiOpen: true}
	r2 := Range{HasLo: true, Lo: iv(100), HasHi: true, Hi: iv(200), HiOpen: true}
	s1 := Range{HasLo: true, Lo: iv(0), HasHi: true, Hi: iv(150), HiOpen: true}
	s2 := Range{HasLo: true, Lo: iv(150), HasHi: true, Hi: iv(250), HiOpen: true}
	if !r1.Overlaps(s1) || !s1.Overlaps(r1) {
		t.Errorf("[0,100) should overlap [0,150)")
	}
	if r1.Overlaps(s2) || s2.Overlaps(r1) {
		t.Errorf("[0,100) should not overlap [150,250)")
	}
	if !r2.Overlaps(s1) || !r2.Overlaps(s2) {
		t.Errorf("[100,200) should overlap both")
	}
	// Touching closed endpoints overlap; open ones don't.
	a := Closed(iv(0), iv(10))
	b := Closed(iv(10), iv(20))
	if !a.Overlaps(b) {
		t.Errorf("[0,10] should overlap [10,20]")
	}
	aOpen := Range{HasLo: true, Lo: iv(0), HasHi: true, Hi: iv(10), HiOpen: true}
	if aOpen.Overlaps(b) {
		t.Errorf("[0,10) should not overlap [10,20]")
	}
	if !Unbounded().Overlaps(a) || !a.Overlaps(Unbounded()) {
		t.Errorf("unbounded overlaps everything")
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Closed(iv(0), iv(100))
	b := Closed(iv(50), iv(150))
	got := a.Intersect(b)
	if !got.HasLo || !got.HasHi || got.Lo.Int64() != 50 || got.Hi.Int64() != 100 {
		t.Errorf("intersect = %v", got)
	}
	u := Unbounded().Intersect(b)
	if u.Lo.Int64() != 50 || u.Hi.Int64() != 150 {
		t.Errorf("unbounded intersect = %v", u)
	}
	// Open bound wins over closed at same endpoint.
	c := Range{HasLo: true, Lo: iv(50), LoOpen: true}
	got = b.Intersect(c)
	if !got.LoOpen {
		t.Errorf("open bound lost in intersection")
	}
}

func TestToRange(t *testing.T) {
	cases := []struct {
		p   Predicate
		in  int64
		out int64
	}{
		{NewCmp(0, EQ, iv(5)), 5, 6},
		{NewCmp(0, LT, iv(5)), 4, 5},
		{NewCmp(0, LE, iv(5)), 5, 6},
		{NewCmp(0, GT, iv(5)), 6, 5},
		{NewCmp(0, GE, iv(5)), 5, 4},
		{NewIn(0, iv(3), iv(9), iv(6)), 6, 11},
	}
	for _, c := range cases {
		r := c.p.ToRange()
		if !contains(r, iv(c.in)) {
			t.Errorf("%v.ToRange()=%v should contain %d", c.p, r, c.in)
		}
		if contains(r, iv(c.out)) {
			t.Errorf("%v.ToRange()=%v should not contain %d", c.p, r, c.out)
		}
	}
	if !contains(NewCmp(0, NE, iv(5)).ToRange(), iv(5)) {
		t.Errorf("NE range must stay unbounded (sound over-approximation)")
	}
	if !NewIn(0).ToRange().Empty() {
		t.Errorf("empty IN should produce empty range")
	}
}

func TestColumnRanges(t *testing.T) {
	preds := []Predicate{
		NewCmp(2, GE, iv(10)),
		NewCmp(2, LT, iv(20)),
		NewCmp(5, EQ, iv(7)),
	}
	ranges := ColumnRanges(preds)
	if len(ranges) != 2 {
		t.Fatalf("got %d column ranges, want 2", len(ranges))
	}
	r2 := ranges[2]
	if !contains(r2, iv(10)) || !contains(r2, iv(19)) || contains(r2, iv(20)) || contains(r2, iv(9)) {
		t.Errorf("col2 range wrong: %v", r2)
	}
	r5 := ranges[5]
	if !contains(r5, iv(7)) || contains(r5, iv(8)) {
		t.Errorf("col5 range wrong: %v", r5)
	}
}

// Property: a tuple matching the conjunction always lies inside every
// folded column range — i.e., range pruning is sound.
func TestColumnRangesSoundQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nPreds := 1 + r.Intn(4)
		preds := make([]Predicate, 0, nPreds)
		for i := 0; i < nPreds; i++ {
			op := []Op{EQ, LT, LE, GT, GE, In}[r.Intn(6)]
			col := r.Intn(3)
			if op == In {
				preds = append(preds, NewIn(col, iv(r.Int63n(20)), iv(r.Int63n(20))))
			} else {
				preds = append(preds, NewCmp(col, op, iv(r.Int63n(20))))
			}
		}
		tp := tuple.Tuple{iv(rng.Int63n(20)), iv(rng.Int63n(20)), iv(rng.Int63n(20))}
		if !MatchesAll(preds, tp) {
			return true // vacuous
		}
		for col, cr := range ColumnRanges(preds) {
			if !contains(cr, tp[col]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Overlaps is symmetric and consistent with Intersect being
// non-empty for closed integer ranges.
func TestOverlapsMatchesIntersectQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		lo1, hi1 := int64(min8(a1, a2)), int64(max8(a1, a2))
		lo2, hi2 := int64(min8(b1, b2)), int64(max8(b1, b2))
		ra := Closed(iv(lo1), iv(hi1))
		rb := Closed(iv(lo2), iv(hi2))
		ov := ra.Overlaps(rb)
		if ov != rb.Overlaps(ra) {
			return false
		}
		return ov == !ra.Intersect(rb).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func min8(a, b int8) int8 {
	if a < b {
		return a
	}
	return b
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

func TestStringRendering(t *testing.T) {
	p := NewCmp(3, GE, iv(7))
	if p.String() == "" {
		t.Errorf("empty predicate string")
	}
	in := NewIn(1, iv(1), iv(2))
	if in.String() == "" {
		t.Errorf("empty IN string")
	}
	if Unbounded().String() != "(-inf, +inf)" {
		t.Errorf("unbounded String = %q", Unbounded().String())
	}
	if Closed(iv(1), iv(2)).String() != "[1, 2]" {
		t.Errorf("closed String = %q", Closed(iv(1), iv(2)).String())
	}
}
