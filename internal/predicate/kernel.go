// The vectorized predicate kernel: a conjunction evaluated a column at a
// time over typed vectors, narrowing a selection vector, instead of a
// row at a time over boxed tuples.

package predicate

import (
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// FilterSel returns the physical rows of cols, among those sel lists
// (nil: every row), that satisfy the whole conjunction, in order — the
// rows for which MatchesAll holds on the materialized tuple, decided
// the same way in every case: a NULL cell or a NULL constant satisfies
// nothing, values of different kinds order by Kind, NaN is the
// smallest float. With no predicates it returns sel itself; otherwise the result
// is never nil and is written into dst's backing (grown when too
// small), which may be sel's own: survivors are written behind the
// position being read.
//
// A typed, NULL-free column compared against a constant of its own kind
// runs one monomorphic loop per operator with the constant hoisted;
// every other shape — NULLs, a mixed-kind (boxed) column, a constant of
// another kind — goes through ColVec.CompareValue, skipping NULL cells.
func FilterSel(preds []Predicate, cols *tuple.Columns, sel, dst []int32) []int32 {
	if len(preds) == 0 {
		return sel
	}
	n := cols.FullLen()
	if sel != nil {
		n = len(sel)
	}
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	// Every loop stores unconditionally at out[cnt] and advances cnt on
	// a match, so out needs room for all n candidates.
	out := dst[:n]
	for _, p := range preds {
		n = filterOne(p, cols.Col(p.Col), n, sel, out)
		sel = out[:n]
	}
	if sel == nil {
		sel = []int32{} // no rows and no backing: still "none", not "all"
	}
	return sel
}

// filterOne writes the rows among the n candidates (sel[k], or k itself
// when sel is nil) that satisfy p into out and returns their count.
func filterOne(p Predicate, v *tuple.ColVec, n int, sel, out []int32) int {
	k := v.Kind()
	typed := v.Boxed() == nil && v.Valid() == nil && k != value.Null
	if p.Op == In {
		switch {
		case typed && value.IntClass(k):
			return inInts(v.Ints(), k, p.Vals, n, sel, out)
		case typed && k == value.Float:
			return inFloats(v.Floats(), p.Vals, n, sel, out)
		case typed && k == value.String:
			return inStrings(v.Strs(), p.Vals, n, sel, out)
		}
		return inGeneric(v, p.Vals, n, sel, out)
	}
	if p.Val.IsNull() {
		return 0 // a NULL constant matches nothing
	}
	if typed && k == p.Val.K {
		switch {
		case value.IntClass(k):
			return cmpOrdered(v.Ints(), p.Val.I, p.Op, n, sel, out)
		case k == value.Float:
			return cmpFloats(v.Floats(), p.Val.F, p.Op, n, sel, out)
		case k == value.String:
			return cmpOrdered(v.Strs(), p.Val.S, p.Op, n, sel, out)
		}
	}
	return cmpGeneric(v, p.Val, p.Op, n, sel, out)
}

// cmpOrdered is the column kind × operator loop nest under the kind's
// native order — Int/Date/Bool and String outright, Float through
// cmpFloats, which takes the cases where IEEE and the total order part.
func cmpOrdered[T int64 | float64 | string](xs []T, c T, op Op, n int, sel, out []int32) int {
	cnt := 0
	switch op {
	case EQ:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] == c {
				cnt++
			}
		}
	case NE:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] != c {
				cnt++
			}
		}
	case LT:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] < c {
				cnt++
			}
		}
	case LE:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] <= c {
				cnt++
			}
		}
	case GT:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] > c {
				cnt++
			}
		}
	case GE:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if xs[i] >= c {
				cnt++
			}
		}
	}
	return cnt
}

// cmpFloats is cmpOrdered under value.CompareFloat's order. Against an
// ordinary constant only the "below" operators differ from IEEE: a NaN
// cell is below it. Against a NaN constant every operator reduces to
// "is the cell NaN", its negation, all or none.
func cmpFloats(xs []float64, c float64, op Op, n int, sel, out []int32) int {
	cnt := 0
	switch {
	case c != c:
		// want[0]: keep non-NaN cells, want[1]: keep NaN cells.
		var want [2]bool
		switch op {
		case EQ, LE:
			want[1] = true
		case NE, GT:
			want[0] = true
		case GE:
			want[0], want[1] = true, true
		}
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if x := xs[i]; (x != x && want[1]) || (x == x && want[0]) {
				cnt++
			}
		}
	case op == LT:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if x := xs[i]; x < c || x != x {
				cnt++
			}
		}
	case op == LE:
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			out[cnt] = int32(i)
			if x := xs[i]; x <= c || x != x {
				cnt++
			}
		}
	default:
		// EQ, NE, GT, GE: IEEE already agrees — a NaN cell equals no
		// ordinary constant and is above none.
		return cmpOrdered(xs, c, op, n, sel, out)
	}
	return cnt
}

// accepts maps an operator to the Compare outcomes it keeps, indexed by
// outcome+1; an operator Matches does not know keeps nothing.
func accepts(op Op) (want [3]bool) {
	switch op {
	case EQ:
		want[1] = true
	case NE:
		want[0], want[2] = true, true
	case LT:
		want[0] = true
	case LE:
		want[0], want[1] = true, true
	case GT:
		want[2] = true
	case GE:
		want[1], want[2] = true, true
	}
	return want
}

// cmpGeneric is the exact fallback for any column shape and non-NULL
// constant; a NULL cell satisfies nothing.
func cmpGeneric(v *tuple.ColVec, c value.Value, op Op, n int, sel, out []int32) int {
	want := accepts(op)
	cnt := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out[cnt] = int32(i)
		if v.IsValid(i) && want[v.CompareValue(i, c)+1] {
			cnt++
		}
	}
	return cnt
}

// inInts keeps cells equal to some member of the column's own kind —
// members of any other kind (or NULL) equal no cell of a NULL-free
// typed column.
func inInts(xs []int64, kind value.Kind, vals []value.Value, n int, sel, out []int32) int {
	cnt := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out[cnt] = int32(i)
		x := xs[i]
		for j := range vals {
			if vals[j].K == kind && vals[j].I == x {
				cnt++
				break
			}
		}
	}
	return cnt
}

func inFloats(xs []float64, vals []value.Value, n int, sel, out []int32) int {
	cnt := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out[cnt] = int32(i)
		x := xs[i]
		for j := range vals {
			if vals[j].K == value.Float && value.FloatEqual(vals[j].F, x) {
				cnt++
				break
			}
		}
	}
	return cnt
}

func inStrings(xs []string, vals []value.Value, n int, sel, out []int32) int {
	cnt := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out[cnt] = int32(i)
		x := xs[i]
		for j := range vals {
			if vals[j].K == value.String && vals[j].S == x {
				cnt++
				break
			}
		}
	}
	return cnt
}

func inGeneric(v *tuple.ColVec, vals []value.Value, n int, sel, out []int32) int {
	cnt := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out[cnt] = int32(i)
		if !v.IsValid(i) {
			continue
		}
		for j := range vals {
			if !vals[j].IsNull() && v.CompareValue(i, vals[j]) == 0 {
				cnt++
				break
			}
		}
	}
	return cnt
}
