// Package predicate implements the predicate and range algebra AdaptDB
// uses for data access: evaluating selection predicates against tuples,
// converting conjunctions of predicates into per-column ranges, and
// testing ranges against block zone maps (per-attribute min/max) so scans
// and the partitioning-tree lookup can skip irrelevant blocks.
package predicate

import (
	"fmt"
	"strings"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Op is a comparison operator.
type Op uint8

// Supported comparison operators. In is a disjunctive membership test
// (col ∈ {v1, v2, ...}) needed by TPC-H q12/q19 templates.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
	In
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case In:
		return "IN"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Predicate is a single comparison over one column. A query's selection
// is a conjunction ([]Predicate). For In, Vals holds the member set and
// Val is unused.
type Predicate struct {
	Col  int // column index in the table schema
	Op   Op
	Val  value.Value
	Vals []value.Value // for In
}

// NewCmp builds a comparison predicate.
func NewCmp(col int, op Op, v value.Value) Predicate {
	return Predicate{Col: col, Op: op, Val: v}
}

// NewIn builds a membership predicate.
func NewIn(col int, vals ...value.Value) Predicate {
	return Predicate{Col: col, Op: In, Vals: vals}
}

// Matches evaluates the predicate against a tuple under SQL's NULL
// rule: a NULL cell satisfies no comparison and no IN, and a NULL
// constant (or IN member) matches nothing. Zone maps, joins and the
// partitioning tree skip NULLs the same way, so block pruning can never
// drop a row that matches. Non-NULL values compare under value.Compare.
func (p Predicate) Matches(t tuple.Tuple) bool {
	v := t[p.Col]
	if v.IsNull() || (p.Op != In && p.Val.IsNull()) {
		return false
	}
	switch p.Op {
	case EQ:
		return value.Compare(v, p.Val) == 0
	case NE:
		return value.Compare(v, p.Val) != 0
	case LT:
		return value.Compare(v, p.Val) < 0
	case LE:
		return value.Compare(v, p.Val) <= 0
	case GT:
		return value.Compare(v, p.Val) > 0
	case GE:
		return value.Compare(v, p.Val) >= 0
	case In:
		for _, m := range p.Vals {
			if !m.IsNull() && value.Compare(v, m) == 0 {
				return true
			}
		}
		return false
	}
	return false
}

// String renders the predicate for logs.
func (p Predicate) String() string {
	if p.Op == In {
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = v.String()
		}
		return fmt.Sprintf("col%d IN (%s)", p.Col, strings.Join(parts, ","))
	}
	return fmt.Sprintf("col%d %s %v", p.Col, p.Op, p.Val)
}

// MatchesAll reports whether t satisfies every predicate in the
// conjunction.
func MatchesAll(preds []Predicate, t tuple.Tuple) bool {
	for _, p := range preds {
		if !p.Matches(t) {
			return false
		}
	}
	return true
}

// Range is a (possibly half-open, possibly unbounded) interval over one
// column's values. The zero Range is fully unbounded: (-inf, +inf).
type Range struct {
	HasLo, HasHi   bool
	Lo, Hi         value.Value
	LoOpen, HiOpen bool // strict bounds
}

// Unbounded returns the full range.
func Unbounded() Range { return Range{} }

// Point returns the degenerate range [v, v].
func Point(v value.Value) Range {
	return Range{HasLo: true, HasHi: true, Lo: v, Hi: v}
}

// Closed returns [lo, hi].
func Closed(lo, hi value.Value) Range {
	return Range{HasLo: true, HasHi: true, Lo: lo, Hi: hi}
}

// Empty reports whether the range provably contains no values.
func (r Range) Empty() bool {
	if !r.HasLo || !r.HasHi {
		return false
	}
	c := value.Compare(r.Lo, r.Hi)
	if c > 0 {
		return true
	}
	if c == 0 && (r.LoOpen || r.HiOpen) {
		return true
	}
	return false
}

// Overlaps reports whether two ranges can share at least one value.
// This is the core test behind hyper-join's overlap vectors: blocks r_i
// and s_j must be joined iff Ranget(r_i) ∩ Ranget(s_j) ≠ ∅ (§4.1.1).
func (r Range) Overlaps(o Range) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	// r entirely below o?
	if r.HasHi && o.HasLo {
		c := value.Compare(r.Hi, o.Lo)
		if c < 0 || (c == 0 && (r.HiOpen || o.LoOpen)) {
			return false
		}
	}
	// o entirely below r?
	if o.HasHi && r.HasLo {
		c := value.Compare(o.Hi, r.Lo)
		if c < 0 || (c == 0 && (o.HiOpen || r.LoOpen)) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two ranges.
func (r Range) Intersect(o Range) Range {
	out := r
	if o.HasLo {
		if !out.HasLo {
			out.HasLo, out.Lo, out.LoOpen = true, o.Lo, o.LoOpen
		} else {
			c := value.Compare(o.Lo, out.Lo)
			if c > 0 || (c == 0 && o.LoOpen) {
				out.Lo, out.LoOpen = o.Lo, o.LoOpen
			}
		}
	}
	if o.HasHi {
		if !out.HasHi {
			out.HasHi, out.Hi, out.HiOpen = true, o.Hi, o.HiOpen
		} else {
			c := value.Compare(o.Hi, out.Hi)
			if c < 0 || (c == 0 && o.HiOpen) {
				out.Hi, out.HiOpen = o.Hi, o.HiOpen
			}
		}
	}
	return out
}

// String renders interval notation for logs.
func (r Range) String() string {
	lo, hi := "-inf", "+inf"
	lb, rb := "(", ")"
	if r.HasLo {
		lo = r.Lo.String()
		if !r.LoOpen {
			lb = "["
		}
	}
	if r.HasHi {
		hi = r.Hi.String()
		if !r.HiOpen {
			rb = "]"
		}
	}
	return fmt.Sprintf("%s%s, %s%s", lb, lo, hi, rb)
}

// ToRange narrows an unbounded range by the predicate, returning the
// range of column values that can satisfy p. In predicates narrow to the
// [min, max] hull of the member set (sound for pruning, not exact).
// NE predicates cannot be expressed as a single interval and return the
// unbounded range (again sound).
func (p Predicate) ToRange() Range {
	switch p.Op {
	case EQ:
		return Point(p.Val)
	case LT:
		return Range{HasHi: true, Hi: p.Val, HiOpen: true}
	case LE:
		return Range{HasHi: true, Hi: p.Val}
	case GT:
		return Range{HasLo: true, Lo: p.Val, LoOpen: true}
	case GE:
		return Range{HasLo: true, Lo: p.Val}
	case In:
		if len(p.Vals) == 0 {
			// Empty IN list matches nothing.
			return Range{HasLo: true, HasHi: true, Lo: value.NewInt(1), Hi: value.NewInt(0)}
		}
		lo, hi := p.Vals[0], p.Vals[0]
		for _, v := range p.Vals[1:] {
			lo = value.Min(lo, v)
			hi = value.Max(hi, v)
		}
		return Closed(lo, hi)
	default: // NE
		return Unbounded()
	}
}

// ColumnRanges folds a conjunction of predicates into one range per
// referenced column. Blocks whose zone map does not overlap some
// column's range cannot contain matching tuples.
func ColumnRanges(preds []Predicate) map[int]Range {
	out := make(map[int]Range)
	for _, p := range preds {
		r, ok := out[p.Col]
		if !ok {
			r = Unbounded()
		}
		out[p.Col] = r.Intersect(p.ToRange())
	}
	return out
}
