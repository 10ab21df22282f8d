package predicate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var kernelFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 2, 2.5}

// Column flavours the kernel must handle: the typed ones stay one kind,
// "nullrun" is typed with long NULL stretches, "allnull" never adopts a
// kind, "mixed" crosses kinds so the vector demotes to boxed storage.
const (
	flavInt = iota
	flavDate
	flavBool
	flavFloat
	flavString
	flavNullRun
	flavAllNull
	flavMixed
	numFlavours
)

func kernelCell(rng *rand.Rand, flavour int) value.Value {
	switch flavour {
	case flavInt:
		return value.NewInt(rng.Int63n(7) - 3)
	case flavDate:
		return value.NewDate(rng.Int63n(7))
	case flavBool:
		return value.NewBool(rng.Intn(2) == 0)
	case flavFloat:
		return value.NewFloat(kernelFloats[rng.Intn(len(kernelFloats))])
	case flavString:
		return value.NewString([]string{"", "a", "ab", "b", "c"}[rng.Intn(5)])
	case flavAllNull:
		return value.Value{}
	default:
		if rng.Intn(5) == 0 {
			return value.Value{}
		}
		return kernelCell(rng, rng.Intn(flavString+1))
	}
}

// checkFilterSel draws a random column set and conjunction from seed and
// holds FilterSel to the boxed oracle — row-wise Matches — with no
// incoming selection, with one into a separate buffer, and with one
// narrowed in place.
func checkFilterSel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ncols, nrows := 1+rng.Intn(4), rng.Intn(150)
	flavours := make([]int, ncols)
	nullable := make([]bool, ncols) // a NULL-free typed column takes the monomorphic loops
	for c := range flavours {
		flavours[c] = rng.Intn(numFlavours)
		nullable[c] = rng.Intn(2) == 0
	}
	rows := make([]tuple.Tuple, nrows)
	nullRun := make([]int, ncols)
	for i := range rows {
		rows[i] = make(tuple.Tuple, ncols)
		for c, fl := range flavours {
			if fl == flavNullRun {
				if nullRun[c] == 0 && rng.Intn(10) == 0 {
					nullRun[c] = 1 + rng.Intn(70)
				}
				if nullRun[c] > 0 {
					nullRun[c]--
					continue
				}
				fl = flavInt + c%(flavString+1)
			} else if nullable[c] && rng.Intn(9) == 0 {
				continue // a sprinkled NULL
			}
			rows[i][c] = kernelCell(rng, fl)
		}
	}
	cols := tuple.NewColumns(ncols)
	if rng.Intn(2) == 0 {
		cols.AppendRows(rows)
	} else {
		for _, r := range rows {
			cols.AppendRow(r)
		}
	}

	ops := []Op{EQ, NE, LT, LE, GT, GE, In, Op(99)}
	preds := make([]Predicate, 1+rng.Intn(3))
	for k := range preds {
		col := rng.Intn(ncols)
		constant := func() value.Value {
			switch rng.Intn(4) {
			case 0:
				return kernelCell(rng, flavMixed) // any kind, or NULL
			default:
				fl := flavours[col]
				if fl == flavNullRun {
					fl = flavInt + col%(flavString+1)
				}
				return kernelCell(rng, fl)
			}
		}
		p := Predicate{Col: col, Op: ops[rng.Intn(len(ops))], Val: constant()}
		if p.Op == In {
			p.Vals = make([]value.Value, rng.Intn(4)) // sometimes empty
			for j := range p.Vals {
				p.Vals[j] = constant()
			}
		}
		preds[k] = p
	}

	oracle := func(sel []int32) []int32 {
		out := []int32{}
		each := func(i int32) {
			if MatchesAll(preds, rows[i]) {
				out = append(out, i)
			}
		}
		if sel == nil {
			for i := range rows {
				each(int32(i))
			}
		} else {
			for _, i := range sel {
				each(i)
			}
		}
		return out
	}
	check := func(label string, got, want []int32) {
		t.Helper()
		if got == nil {
			t.Fatalf("seed %d %s: nil result for a non-empty conjunction", seed, label)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d %s: preds %v\n got %v\nwant %v", seed, label, preds, got, want)
		}
	}

	check("all rows", FilterSel(preds, cols, nil, nil), oracle(nil))
	check("all rows, small buffer", FilterSel(preds, cols, nil, make([]int32, 0, 3)), oracle(nil))

	sel := []int32{}
	for i := range rows {
		if rng.Intn(3) != 0 {
			sel = append(sel, int32(i))
		}
	}
	want := oracle(sel)
	before := slices.Clone(sel)
	check("selection", FilterSel(preds, cols, sel, make([]int32, 0, nrows)), want)
	if !slices.Equal(sel, before) {
		t.Fatalf("seed %d: narrowing into a separate buffer rewrote the incoming selection", seed)
	}
	check("selection, in place", FilterSel(preds, cols, sel, sel[:0]), want)

	// The cell-vs-constant comparison the kernel's fallback and the
	// columnar tree route share.
	for _, p := range preds {
		for i, r := range rows {
			if got, want := cols.Col(p.Col).CompareValue(i, p.Val), value.Compare(r[p.Col], p.Val); got != want {
				t.Fatalf("seed %d: CompareValue(%v, %v) = %d, Compare says %d", seed, r[p.Col], p.Val, got, want)
			}
		}
	}
}

func TestFilterSelMatchesBoxedOracle(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkFilterSel(t, seed)
	}
}

func FuzzFilterSel(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkFilterSel)
}

func TestFilterSelNoPredicatesKeepsSelection(t *testing.T) {
	cols := tuple.NewColumns(1)
	cols.AppendRows([]tuple.Tuple{{value.NewInt(1)}, {value.NewInt(2)}})
	if got := FilterSel(nil, cols, nil, nil); got != nil {
		t.Fatalf("no predicates, no selection: got %v, want nil (every row)", got)
	}
	sel := []int32{1}
	if got := FilterSel(nil, cols, sel, nil); !slices.Equal(got, sel) {
		t.Fatalf("no predicates: got %v, want the incoming selection", got)
	}
}

// The NULL rule, spelled out once: a NULL cell satisfies no comparison
// and no IN, and a NULL constant matches nothing. It is what Matches
// does, so it is what the kernel does.
func TestFilterSelNullMatchesNothing(t *testing.T) {
	rows := []tuple.Tuple{{value.Value{}}, {value.NewInt(3)}, {value.NewInt(9)}}
	cols := tuple.NewColumns(1)
	cols.AppendRows(rows)
	for _, c := range []struct {
		p    Predicate
		want []int32
	}{
		{NewCmp(0, LT, value.NewInt(5)), []int32{1}},
		{NewCmp(0, LE, value.NewInt(9)), []int32{1, 2}},
		{NewCmp(0, NE, value.NewInt(3)), []int32{2}},
		{NewCmp(0, EQ, value.Value{}), []int32{}},
		{NewCmp(0, GE, value.Value{}), []int32{}},
		{NewIn(0, value.Value{}, value.NewInt(9)), []int32{2}},
		// Int(3) and Int(9) both order below any Date: kinds order by
		// Kind. The NULL cell still fails.
		{NewCmp(0, LT, value.NewDate(0)), []int32{1, 2}},
	} {
		got := FilterSel([]Predicate{c.p}, cols, nil, nil)
		if !slices.Equal(got, c.want) {
			t.Errorf("%v over [NULL 3 9]: got %v, want %v", c.p, got, c.want)
		}
		for i, r := range rows {
			if c.p.Matches(r) != slices.Contains(c.want, int32(i)) {
				t.Errorf("%v.Matches(row %d) disagrees with the kernel", c.p, i)
			}
		}
	}
}
