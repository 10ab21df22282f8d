// Package value defines the typed scalar values stored in AdaptDB tuples.
//
// AdaptDB is a relational storage manager: every column has a fixed Kind
// and every cell is a Value. Values support total ordering within a Kind
// (needed for partitioning-tree cut points and zone maps) and a compact
// binary encoding (needed to persist blocks in the distributed file
// system simulator).
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported column kinds. Date is stored as days since 1970-01-01 so
// range predicates over dates reduce to integer comparisons, matching how
// the TPC-H templates issue date predicates.
const (
	Null Kind = iota
	Int
	Float
	String
	Date
	Bool
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Date:
		return "date"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is Null.
//
// Value is a small value type passed by copy throughout the system; it
// deliberately has no pointers except the string header so blocks of
// tuples stay cheap to scan.
type Value struct {
	K Kind
	I int64   // Int, Date (days since epoch), Bool (0/1)
	F float64 // Float
	S string  // String
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewString returns a String value.
func NewString(s string) Value { return Value{K: String, S: s} }

// NewBool returns a Bool value.
func NewBool(b bool) Value {
	v := Value{K: Bool}
	if b {
		v.I = 1
	}
	return v
}

// NewDate returns a Date value for the given days-since-epoch ordinal.
func NewDate(days int64) Value { return Value{K: Date, I: days} }

// DateOf converts a calendar date to a Date value.
func DateOf(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.K == Null }

// Int64 returns the integer payload (Int, Date and Bool kinds).
func (v Value) Int64() int64 { return v.I }

// Float64 returns the float payload, converting Int/Date if necessary.
func (v Value) Float64() float64 {
	switch v.K {
	case Float:
		return v.F
	case Int, Date, Bool:
		return float64(v.I)
	default:
		return math.NaN()
	}
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Bool reports the boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// String renders the value for logs and debugging output.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Date:
		t := time.Unix(v.I*86400, 0).UTC()
		return t.Format("2006-01-02")
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.K))
	}
}

// Compare totally orders two values of the same Kind. Null sorts before
// everything; comparing distinct non-null kinds orders by Kind so that
// Compare remains a total order even on heterogeneous inputs (needed by
// sort-based median computation over sampled columns).
func Compare(a, b Value) int {
	if a.K != b.K {
		if a.K == Null {
			return -1
		}
		if b.K == Null {
			return 1
		}
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case Null:
		return 0
	case Int, Date, Bool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float:
		return CompareFloat(a.F, b.F)
	case String:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
	return 0
}

// CompareFloat is Compare's order on two Float payloads, for code that
// holds bare float64s (typed column vectors). IEEE comparisons are all
// false against NaN, which would make NaN "equal" to every float and
// break the total order (and disagree with Hash64, which buckets NaNs
// alone — the PR-5 differential harness caught exactly that), so NaNs
// are ordered explicitly: all NaNs are equal to each other and sort
// before every other float. +0.0 and -0.0 compare equal.
func CompareFloat(a, b float64) int {
	an, bn := a != a, b != b
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		}
		return 1
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Less reports a < b under Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Equal reports a == b under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Min returns the smaller of a and b.
func Min(a, b Value) Value {
	if Compare(a, b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Value) Value {
	if Compare(a, b) >= 0 {
		return a
	}
	return b
}

// Hash64 returns a 64-bit hash of v, consistent with Equal: values equal
// under Compare hash identically (including +0.0 vs -0.0 and any two
// NaNs, which Compare treats as equal), and the Kind is mixed in so
// values of different kinds — never equal under Compare — rarely
// collide. Unlike AppendBinary-based keying, hashing touches no heap:
// numeric kinds finalize the payload with one multiply-shift mix and
// strings run FNV-1a. The join hash table keys on Hash64 and resolves
// residual collisions with Equal.
func (v Value) Hash64() uint64 {
	const kindSalt = 0x9e3779b97f4a7c15 // 2^64/φ, spreads small Kind ints
	switch v.K {
	case Int, Date, Bool:
		return mix64(uint64(v.I) ^ uint64(v.K)*kindSalt)
	case Float:
		f := v.F
		if f == 0 {
			f = 0 // -0.0 == +0.0 under Compare; fold to one bit pattern
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = math.Float64bits(math.NaN()) // all NaNs compare equal
		}
		return mix64(bits ^ uint64(v.K)*kindSalt)
	case String:
		h := uint64(14695981039346656037) ^ uint64(v.K)*kindSalt
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= 1099511628211
		}
		return mix64(h)
	default: // Null: joins skip null keys, any constant works
		return kindSalt
	}
}

// mix64 is the splitmix64 finalizer — a cheap bijective avalanche so
// both the high bits (radix partitioning) and low bits (exchange
// routing, hash % nodes) of a hash are uniform even for dense integer
// keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// AppendBinary appends a self-describing encoding of v to dst and returns
// the extended slice. The format is: 1 byte kind, then a kind-specific
// payload (varint for Int/Date/Bool, 8-byte IEEE754 for Float, uvarint
// length + bytes for String).
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case Null:
	case Int, Date, Bool:
		dst = binary.AppendVarint(dst, v.I)
	case Float:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case String:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// DecodeValue decodes a value previously produced by AppendBinary and
// returns it together with the number of bytes consumed.
func DecodeValue(src []byte) (Value, int, error) {
	return DecodeValuePooled(src, "")
}

// DecodeValuePooled is DecodeValue for batch decoders that have already
// made one string copy of the encoded bytes: pool must be that copy,
// sliced to the same offset as src. String payloads alias pool instead
// of allocating — one allocation per frame instead of one per string
// value, which is most of the GC churn of a spilled-join read-back.
func DecodeValuePooled(src []byte, pool string) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("value: decode: empty input")
	}
	k := Kind(src[0])
	pos := 1
	switch k {
	case Null:
		return Value{}, pos, nil
	case Int, Date, Bool:
		i, n := binary.Varint(src[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: decode: bad varint for kind %v", k)
		}
		return Value{K: k, I: i}, pos + n, nil
	case Float:
		if len(src) < pos+8 {
			return Value{}, 0, fmt.Errorf("value: decode: short float payload")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		return Value{K: k, F: f}, pos + 8, nil
	case String:
		l, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: decode: bad string length")
		}
		pos += n
		if uint64(len(src)-pos) < l {
			return Value{}, 0, fmt.Errorf("value: decode: short string payload (want %d have %d)", l, len(src)-pos)
		}
		if len(pool) >= pos+int(l) {
			return Value{K: k, S: pool[pos : pos+int(l)]}, pos + int(l), nil
		}
		return Value{K: k, S: string(src[pos : pos+int(l)])}, pos + int(l), nil
	default:
		return Value{}, 0, fmt.Errorf("value: decode: unknown kind %d", src[0])
	}
}
