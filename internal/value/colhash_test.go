package value

import (
	"math"
	"testing"
)

// TestColumnHashMatchesBoxed pins the contract the columnar hot path
// rests on: the flat helpers hash exactly like Value.Hash64, including
// the ±0.0 fold, NaN canonicalization, and per-kind salting.
func TestColumnHashMatchesBoxed(t *testing.T) {
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 33}
	for _, k := range []Kind{Int, Date, Bool} {
		for _, i := range ints {
			if got, want := HashInt64(k, i), (Value{K: k, I: i}).Hash64(); got != want {
				t.Errorf("HashInt64(%v, %d) = %#x, want %#x", k, i, got, want)
			}
		}
	}
	// Int and Date with the same payload must not collide by construction
	// (different kind salt), matching Compare which never equates kinds.
	if HashInt64(Int, 7) == HashInt64(Date, 7) {
		t.Errorf("Int and Date hashes collide for payload 7")
	}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), // NaN with a payload
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, f := range floats {
		if got, want := HashFloat64(f), NewFloat(f).Hash64(); got != want {
			t.Errorf("HashFloat64(%v) = %#x, want %#x", f, got, want)
		}
	}
	if HashFloat64(0) != HashFloat64(math.Copysign(0, -1)) {
		t.Errorf("+0.0 and -0.0 hash differently")
	}
	if HashFloat64(math.NaN()) != HashFloat64(math.Float64frombits(0x7ff8000000000001)) {
		t.Errorf("distinct NaN payloads hash differently")
	}
	for _, s := range []string{"", "a", "TRUCK", "RAIL", "a longer string with spaces", "\x00\xff"} {
		if got, want := HashString(s), NewString(s).Hash64(); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
	}
	if HashNull != (Value{}).Hash64() {
		t.Errorf("HashNull = %#x, want %#x", HashNull, (Value{}).Hash64())
	}
}

func TestFloatEqualMatchesEqual(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := FloatEqual(a, b), Equal(NewFloat(a), NewFloat(b)); got != want {
				t.Errorf("FloatEqual(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}
