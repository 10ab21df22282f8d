package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestConstructors(t *testing.T) {
	if v := NewInt(42); v.K != Int || v.Int64() != 42 {
		t.Errorf("NewInt: got %+v", v)
	}
	if v := NewFloat(2.5); v.K != Float || v.Float64() != 2.5 {
		t.Errorf("NewFloat: got %+v", v)
	}
	if v := NewString("abc"); v.K != String || v.Str() != "abc" {
		t.Errorf("NewString: got %+v", v)
	}
	if v := NewBool(true); v.K != Bool || !v.Bool() {
		t.Errorf("NewBool(true): got %+v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): got %+v", v)
	}
	if v := NewDate(10); v.K != Date || v.Int64() != 10 {
		t.Errorf("NewDate: got %+v", v)
	}
	var z Value
	if !z.IsNull() {
		t.Errorf("zero Value should be Null")
	}
}

func TestDateOf(t *testing.T) {
	v := DateOf(1970, time.January, 1)
	if v.Int64() != 0 {
		t.Errorf("epoch date: got %d want 0", v.Int64())
	}
	v = DateOf(1970, time.January, 11)
	if v.Int64() != 10 {
		t.Errorf("1970-01-11: got %d want 10", v.Int64())
	}
	v = DateOf(1995, time.March, 15)
	if v.String() != "1995-03-15" {
		t.Errorf("date round-trip: got %s", v.String())
	}
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(7), NewInt(7), 0},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewFloat(2.5), NewFloat(2.5), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("x"), NewString("x"), 0},
		{NewDate(5), NewDate(9), -1},
		{NewBool(false), NewBool(true), -1},
		{Value{}, Value{}, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKind(t *testing.T) {
	// Null sorts first; distinct kinds order by Kind for totality.
	if Compare(Value{}, NewInt(0)) != -1 {
		t.Errorf("null should sort before int")
	}
	if Compare(NewInt(0), Value{}) != 1 {
		t.Errorf("int should sort after null")
	}
	if Compare(NewInt(9), NewString("a")) != -1 {
		t.Errorf("kind ordering: int < string expected")
	}
}

func TestCompareNaNTotalOrder(t *testing.T) {
	// PR-5 regression (found by the join differential harness): IEEE
	// comparisons are all false against NaN, so the old Float case
	// reported NaN "equal" to every float — the nested-loop oracle
	// joined NaN keys with everything while the hash paths did not, and
	// SortRows lost its total order. NaNs are equal to each other and
	// sort before every other float.
	nan := NewFloat(math.NaN())
	if Compare(nan, NewFloat(math.NaN())) != 0 {
		t.Error("NaN must equal NaN")
	}
	for _, f := range []Value{NewFloat(-1e300), NewFloat(0), NewFloat(math.Inf(-1)), NewFloat(math.Inf(1))} {
		if Compare(nan, f) != -1 || Compare(f, nan) != 1 {
			t.Errorf("NaN must sort strictly before %v", f)
		}
		if Equal(nan, f) {
			t.Errorf("NaN must not equal %v", f)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	vals := []Value{
		{}, NewInt(-3), NewInt(0), NewInt(5), NewFloat(-1.5), NewFloat(3.25),
		NewFloat(math.NaN()), NewFloat(math.Inf(-1)), NewFloat(math.Inf(1)),
		NewString(""), NewString("abc"), NewDate(100), NewBool(true), NewBool(false),
	}
	// Antisymmetry and consistency.
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry violated for %v, %v", a, b)
			}
		}
	}
	// Transitivity via sort: sorting must not panic and must be ordered.
	s := append([]Value(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return Less(s[i], s[j]) })
	for i := 1; i < len(s); i++ {
		if Compare(s[i-1], s[i]) > 0 {
			t.Fatalf("sorted slice out of order at %d: %v > %v", i, s[i-1], s[i])
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := NewInt(1), NewInt(2)
	if Min(a, b) != a || Min(b, a) != a {
		t.Errorf("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Errorf("Max wrong")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{}, "NULL"},
		{NewInt(-17), "-17"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewDate(0), "1970-01-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Null: "null", Int: "int", Float: "float", String: "string", Date: "date", Bool: "bool"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Errorf("unknown kind should render something")
	}
}

func roundTrip(t *testing.T, v Value) {
	t.Helper()
	enc := v.AppendBinary(nil)
	got, n, err := DecodeValue(enc)
	if err != nil {
		t.Fatalf("decode(%v): %v", v, err)
	}
	if n != len(enc) {
		t.Fatalf("decode(%v): consumed %d of %d bytes", v, n, len(enc))
	}
	if Compare(got, v) != 0 || got.K != v.K {
		t.Fatalf("round trip: got %v want %v", got, v)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, v := range []Value{
		{}, NewInt(0), NewInt(-1), NewInt(1 << 40), NewFloat(0), NewFloat(math.Pi),
		NewFloat(math.Inf(1)), NewString(""), NewString("hello world"),
		NewDate(20000), NewBool(true), NewBool(false),
	} {
		roundTrip(t, v)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, pick uint8) bool {
		var v Value
		switch pick % 5 {
		case 0:
			v = NewInt(i)
		case 1:
			v = NewFloat(fl)
		case 2:
			v = NewString(s)
		case 3:
			v = NewDate(i)
		case 4:
			v = NewBool(i%2 == 0)
		}
		enc := v.AppendBinary(nil)
		got, n, err := DecodeValue(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if v.K == Float && math.IsNaN(v.F) {
			return got.K == Float && math.IsNaN(got.F)
		}
		return Compare(got, v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(Float)},          // short float
		{byte(String), 200},    // bad uvarint / short payload
		{byte(String), 5, 'a'}, // short string body
		{99},                   // unknown kind
	}
	for i, src := range cases {
		if _, _, err := DecodeValue(src); err == nil {
			t.Errorf("case %d: expected decode error for % x", i, src)
		}
	}
}

func TestAppendBinaryConcatenated(t *testing.T) {
	vals := []Value{NewInt(7), NewString("xy"), NewFloat(1.25), {}}
	var buf []byte
	for _, v := range vals {
		buf = v.AppendBinary(buf)
	}
	pos := 0
	for i, want := range vals {
		got, n, err := DecodeValue(buf[pos:])
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if Compare(got, want) != 0 {
			t.Fatalf("decode #%d: got %v want %v", i, got, want)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("trailing bytes: consumed %d of %d", pos, len(buf))
	}
}

func TestHash64EqualValuesHashEqual(t *testing.T) {
	// Equal under Compare must imply equal hashes — including the float
	// edge cases Compare treats as equal.
	pairs := [][2]Value{
		{NewInt(42), NewInt(42)},
		{NewString("orderkey"), NewString("order" + "key")},
		{NewDate(20000), NewDate(20000)},
		{NewBool(true), NewBool(true)},
		{NewFloat(0.0), NewFloat(math.Copysign(0, -1))}, // +0.0 vs -0.0
		{NewFloat(math.NaN()), NewFloat(-math.NaN())},   // NaNs compare equal
		{{}, {}},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) != 0 {
			t.Fatalf("test bug: %v and %v not Compare-equal", p[0], p[1])
		}
		if p[0].Hash64() != p[1].Hash64() {
			t.Errorf("Hash64(%v) != Hash64(%v) for Compare-equal values", p[0], p[1])
		}
	}
}

func TestHash64MixesKind(t *testing.T) {
	// Int 5, Date 5, Bool 1/Int 1, Float 5.0 are never Equal across
	// kinds, and the kind salt should keep their hashes apart too.
	groups := []Value{NewInt(5), NewDate(5), NewFloat(5), NewBool(true), NewInt(1), NewString("5")}
	seen := map[uint64]Value{}
	for _, v := range groups {
		h := v.Hash64()
		if prev, dup := seen[h]; dup {
			t.Errorf("Hash64 collision across kinds: %v (%s) and %v (%s)", prev, prev.K, v, v.K)
		}
		seen[h] = v
	}
}

func TestHash64DistributionOverDenseInts(t *testing.T) {
	// Dense integer keys (the common join-key shape) must spread over
	// both the high bits (radix partition) and low bits (exchange route).
	const n = 1 << 12
	hi := map[uint64]int{}
	lo := map[uint64]int{}
	all := map[uint64]bool{}
	for i := int64(0); i < n; i++ {
		h := NewInt(i).Hash64()
		all[h] = true
		hi[h>>59]++
		lo[h&63]++
	}
	if len(all) != n {
		t.Errorf("dense ints collided: %d distinct hashes of %d", len(all), n)
	}
	// Every one of the 32 high-bit partitions and 64 low-bit buckets
	// should be hit, and none should hog more than 4x its fair share.
	if len(hi) != 32 || len(lo) != 64 {
		t.Fatalf("partitions hit: hi=%d/32 lo=%d/64", len(hi), len(lo))
	}
	for p, c := range hi {
		if c > 4*n/32 {
			t.Errorf("high-bit partition %d has %d of %d hashes", p, c, n)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	for _, v := range []Value{NewInt(-7), NewFloat(2.5), NewString("abc"), NewDate(123), NewBool(false), {}} {
		if v.Hash64() != v.Hash64() {
			t.Errorf("Hash64(%v) not deterministic", v)
		}
	}
}
