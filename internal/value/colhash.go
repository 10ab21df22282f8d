// Kind-specialized hash and compare helpers for the columnar hot path.
//
// The vectorized executor stores a column as a flat typed vector
// ([]int64, []float64, byte arena) and hashes or compares whole columns
// without materializing Values. These helpers are the single source of
// truth it shares with the boxed path: each one is definitionally
// equivalent to Value.Hash64 / Equal on the corresponding boxed value,
// pinned by TestColumnHashMatchesBoxed, so a join may hash one side
// boxed and the other flat and still agree bucket-for-bucket.
package value

import "math"

const kindSalt = 0x9e3779b97f4a7c15 // 2^64/φ, spreads small Kind ints

// saltOf is the kind's hash salt as a runtime value (a constant
// expression uint64(k)*kindSalt would overflow at compile time).
func saltOf(k Kind) uint64 { return uint64(k) * kindSalt }

// HashInt64 hashes the integer payload of an Int, Date or Bool value of
// kind k, identically to Value{K: k, I: i}.Hash64().
func HashInt64(k Kind, i int64) uint64 {
	return mix64(uint64(i) ^ saltOf(k))
}

// HashFloat64 hashes a float payload identically to NewFloat(f).Hash64():
// -0.0 folds to +0.0 and every NaN hashes alike, matching Compare's
// equivalence classes.
func HashFloat64(f float64) uint64 {
	if f == 0 {
		f = 0 // -0.0 == +0.0 under Compare; fold to one bit pattern
	}
	bits := math.Float64bits(f)
	if f != f {
		bits = math.Float64bits(math.NaN()) // all NaNs compare equal
	}
	return mix64(bits ^ saltOf(Float))
}

// HashString hashes a string payload — FNV-1a with the String kind
// salt — identically to NewString(s).Hash64() without boxing.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037) ^ saltOf(String)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashNull is what Null values hash to (joins skip null keys; any
// constant works, this matches Value{}.Hash64()).
const HashNull = uint64(kindSalt)

// FloatEqual reports Equal semantics on raw float payloads: NaNs equal
// each other, ±0.0 equal, everything else IEEE equality.
func FloatEqual(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// IntClass reports whether k stores its payload in Value.I — the kinds a
// flat []int64 column represents (Int, Date, Bool).
func IntClass(k Kind) bool { return k == Int || k == Date || k == Bool }
