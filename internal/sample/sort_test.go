package sample_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/sample"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// refSortValues is the reference SortValues answers to: a boxed
// sort.Slice under value.Less.
func refSortValues(vs []value.Value) []value.Value {
	sort.Slice(vs, func(i, j int) bool { return value.Less(vs[i], vs[j]) })
	return vs
}

// sameBits reports whether two sorted slices hold the same values bit
// for bit: kind, payloads, and a float's sign and NaN bits.
func sameBits(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.K != y.K || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// checkSort sorts a copy of vs both ways and fails unless they agree
// bit for bit.
func checkSort(t *testing.T, what string, vs []value.Value) {
	t.Helper()
	got := sample.SortValues(append([]value.Value(nil), vs...))
	want := refSortValues(append([]value.Value(nil), vs...))
	if !sameBits(got, want) {
		t.Fatalf("%s: SortValues differs from the boxed sort over %d values", what, len(vs))
	}
}

// TestSortValuesMatchesBoxedSort: random columns of one kind (ints and
// dates with many duplicates, floats with NaNs of several payloads and
// both zeros, strings), with NULLs mixed in and with kinds mixed, sort
// to exactly what the boxed sort leaves, equal-but-different values in
// the same order.
func TestSortValuesMatchesBoxedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	floats := []float64{math.NaN(), nan2, math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.Inf(-1)}
	gen := map[string]func() value.Value{
		"int":    func() value.Value { return value.NewInt(rng.Int63n(40)) },
		"date":   func() value.Value { return value.NewDate(rng.Int63n(40)) },
		"bool":   func() value.Value { return value.NewBool(rng.Intn(2) == 0) },
		"float":  func() value.Value { return value.NewFloat(floats[rng.Intn(len(floats))]) },
		"string": func() value.Value { return value.NewString(string(rune('a' + rng.Intn(20)))) },
	}
	kinds := []string{"int", "date", "bool", "float", "string"}
	for _, n := range []int{0, 1, 2, 3, 11, 12, 13, 50, 200, 2048} {
		for _, k := range kinds {
			vs := make([]value.Value, n)
			for i := range vs {
				vs[i] = gen[k]()
			}
			checkSort(t, k, vs)
			for i := range vs {
				switch rng.Intn(6) {
				case 0:
					vs[i] = value.Value{}
				case 1:
					vs[i] = gen[kinds[rng.Intn(len(kinds))]]()
				}
			}
			checkSort(t, k+" with NULLs and other kinds", vs)
		}
	}
}

// TestShiftTreesCutIdentically: every sort that building the shift
// workload's trees makes comes out bit-identical to the boxed sort, so
// the trees cut exactly where they did. The tables are the shift
// fixture's (TPC-H at sf 0.03, 256-row blocks, dataset seed 42); each
// table gets its upfront tree and a two-phase tree on every column, as
// smooth repartitioning builds them from the table's sample. At every
// internal node, each column of the sample rows that reach it — the
// columns the split search sorts there — sorts both ways.
func TestShiftTreesCutIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at sf 0.03")
	}
	data := tpch.Generate(0.03, 42)
	tabs, err := tpch.LoadAll(dfs.NewStore(2, 2, 42), data, tpch.LoadConfig{RowsPerBlock: 256, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*core.Table{tabs.Lineitem, tabs.Orders, tabs.Customer, tabs.Part, tabs.Supplier} {
		depth := max(upfront.DepthForBlocks(tbl.TotalRows(), 256), 1)
		trees := []*tree.Tree{tbl.Trees[0].Tree}
		for c := 0; c < tbl.Schema.NumCols(); c++ {
			trees = append(trees, twophase.Builder{Schema: tbl.Schema, JoinAttr: c, JoinLevels: max(depth/2, 1), TotalDepth: depth, Seed: int64(c)}.Build(tbl.SampleRows))
		}
		for _, tr := range trees {
			walkCuts(t, tbl.Name, tr.Root, tbl.SampleRows)
		}
	}
}

// walkCuts checks the sorts at n and below over rows, the sample rows
// that reach n.
func walkCuts(t *testing.T, table string, n *tree.Node, rows []tuple.Tuple) {
	t.Helper()
	if n.Leaf || len(rows) == 0 {
		return
	}
	for c := range rows[0] {
		checkSort(t, table, sample.Column(rows, c))
	}
	var left, right []tuple.Tuple
	for _, r := range rows {
		if value.Compare(r[n.Attr], n.Cut) <= 0 {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	walkCuts(t, table, n.Left, left)
	walkCuts(t, table, n.Right, right)
}
