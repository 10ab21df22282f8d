package exec

import (
	"math"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func testExec() *Executor {
	return New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
}

// refGroupBy is a plain map-based reference aggregation mirroring
// GroupByOp's documented semantics.
func refGroupBy(rows []tuple.Tuple, spec GroupBySpec) []tuple.Tuple {
	type state struct {
		key  tuple.Tuple
		accs []aggAcc
	}
	var groups []*state
	find := func(key tuple.Tuple) *state {
		for _, g := range groups {
			same := true
			for c := range key {
				if !value.Equal(g.key[c], key[c]) {
					same = false
					break
				}
			}
			if same {
				return g
			}
		}
		g := &state{key: append(tuple.Tuple(nil), key...), accs: make([]aggAcc, len(spec.Aggs))}
		groups = append(groups, g)
		return g
	}
	key := make(tuple.Tuple, len(spec.GroupCols))
	for _, r := range rows {
		for ci, c := range spec.GroupCols {
			key[ci] = r[c]
		}
		g := find(key)
		for ai, a := range spec.Aggs {
			if a.Fn == AggCount && a.Col < 0 {
				g.accs[ai].add(a.Fn, value.Value{})
			} else {
				g.accs[ai].add(a.Fn, r[a.Col])
			}
		}
	}
	if len(spec.GroupCols) == 0 && len(groups) == 0 {
		groups = append(groups, &state{accs: make([]aggAcc, len(spec.Aggs))})
	}
	var out []tuple.Tuple
	for _, g := range groups {
		row := append(tuple.Tuple(nil), g.key...)
		for ai, a := range spec.Aggs {
			row = append(row, g.accs[ai].result(a.Fn))
		}
		out = append(out, row)
	}
	return out
}

func TestGroupByMatchesReference(t *testing.T) {
	rows := genOrders(3000, 91)
	spec := GroupBySpec{
		GroupCols: []int{1}, // custkey: 50 groups
		Aggs: []AggSpec{
			{Fn: AggCount, Col: -1},
			{Fn: AggSum, Col: 2},
			{Fn: AggMin, Col: 0},
			{Fn: AggMax, Col: 2},
			{Fn: AggAvg, Col: 0},
		},
	}
	got, err := Collect(testExec().GroupByOp(NewSource(rows), spec))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, refGroupBy(rows, spec))
}

// TestGroupBySortedOutput: groups come out in key order, so two runs
// over permuted inputs yield identical slices, not just multisets.
func TestGroupBySortedOutput(t *testing.T) {
	rows := genOrders(500, 7)
	rev := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		rev[len(rows)-1-i] = r
	}
	spec := GroupBySpec{GroupCols: []int{1}, Aggs: []AggSpec{{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 2}}}
	a, err := Collect(testExec().GroupByOp(NewSource(rows), spec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(testExec().GroupByOp(NewSource(rev), spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d groups", len(a), len(b))
	}
	for i := range a {
		for c := range a[i] {
			if value.Compare(a[i][c], b[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, c, a[i][c], b[i][c])
			}
		}
	}
	for i := 1; i < len(a); i++ {
		if value.Compare(a[i-1][0], a[i][0]) >= 0 {
			t.Fatalf("output not key-ordered at %d: %v !< %v", i, a[i-1][0], a[i][0])
		}
	}
}

// TestGroupByGlobalAggregate: no group columns — exactly one row, even
// over an empty input, with COUNT 0 and NULL folds.
func TestGroupByGlobalAggregate(t *testing.T) {
	spec := GroupBySpec{Aggs: []AggSpec{
		{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 0}, {Fn: AggMin, Col: 0}, {Fn: AggAvg, Col: 0},
	}}
	got, err := Collect(testExec().GroupByOp(Empty(), spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d rows over empty input, want 1", len(got))
	}
	r := got[0]
	if r[0].Int64() != 0 || !r[1].IsNull() || !r[2].IsNull() || !r[3].IsNull() {
		t.Fatalf("empty-input global aggregate = %v", r)
	}

	rows := genOrders(100, 5)
	got, err = Collect(testExec().GroupByOp(NewSource(rows), spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int64() != 100 {
		t.Fatalf("global aggregate = %v", got)
	}
}

// TestGroupByNullAndNaNKeys: NULL keys form one group and NaN keys
// form one group (value.Compare grouping, unlike join keys).
func TestGroupByNullAndNaNKeys(t *testing.T) {
	rows := []tuple.Tuple{
		{value.Value{}, value.NewInt(1)},
		{value.Value{}, value.NewInt(2)},
		{value.NewFloat(math.NaN()), value.NewInt(3)},
		{value.NewFloat(math.NaN()), value.NewInt(4)},
		{value.NewFloat(1), value.NewInt(5)},
	}
	spec := GroupBySpec{GroupCols: []int{0}, Aggs: []AggSpec{{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 1}}}
	got, err := Collect(testExec().GroupByOp(NewSource(rows), spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d groups, want 3 (null, NaN, 1)", len(got))
	}
	// Null sorts first, NaN before other floats.
	if !got[0][0].IsNull() || got[0][1].Int64() != 2 || got[0][2].Int64() != 3 {
		t.Errorf("null group = %v", got[0])
	}
	if !math.IsNaN(got[1][0].Float64()) || got[1][1].Int64() != 2 || got[1][2].Int64() != 7 {
		t.Errorf("NaN group = %v", got[1])
	}
}

// TestGroupBySumPromotion: integer inputs keep an exact int64 sum;
// the first float promotes the accumulated total.
func TestGroupBySumPromotion(t *testing.T) {
	rows := []tuple.Tuple{
		{value.NewInt(3)}, {value.NewInt(4)}, {value.NewFloat(0.5)},
	}
	spec := GroupBySpec{Aggs: []AggSpec{{Fn: AggSum, Col: 0}}}
	got, err := Collect(testExec().GroupByOp(NewSource(rows), spec))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].K != value.Float || got[0][0].Float64() != 7.5 {
		t.Fatalf("promoted sum = %v", got[0][0])
	}
	intsOnly := rows[:2]
	got, err = Collect(testExec().GroupByOp(NewSource(intsOnly), spec))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].K != value.Int || got[0][0].Int64() != 7 {
		t.Fatalf("integer sum = %v", got[0][0])
	}
}

// TestGroupByBudget: group state is charged while live and fully
// released at Close.
func TestGroupByBudget(t *testing.T) {
	ex := testExec()
	ex.Mem = NewMemBudget(1 << 20)
	op := ex.GroupByOp(NewSource(genOrders(2000, 13)), GroupBySpec{
		GroupCols: []int{0},
		Aggs:      []AggSpec{{Fn: AggCount, Col: -1}},
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if used := ex.Mem.Used(); used == 0 {
		t.Error("no budget charged for 500 live groups")
	}
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		b.Release()
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if used := ex.Mem.Used(); used != 0 {
		t.Errorf("budget holds %d bytes after Close, want 0", used)
	}
}

func TestWhereColsEq(t *testing.T) {
	rows := []tuple.Tuple{
		{value.NewInt(1), value.NewInt(1), value.NewInt(9)},
		{value.NewInt(2), value.NewInt(3), value.NewInt(9)},
		{value.Value{}, value.Value{}, value.NewInt(9)}, // NULL != NULL under join semantics
		{value.NewInt(4), value.NewInt(4), value.NewInt(9)},
	}
	got, err := Collect(WhereColsEq(NewSource(rows), [][2]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, []tuple.Tuple{rows[0], rows[3]})
	// No pairs: pass-through (same operator back).
	src := NewSource(rows)
	if WhereColsEq(src, nil) != Operator(src) {
		t.Error("empty pair list should return the child unchanged")
	}
}

func TestProject(t *testing.T) {
	rows := genOrders(2100, 17)
	want := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		want[i] = tuple.Tuple{r[2], r[0]}
	}
	got, err := Collect(Project(NewSource(rows), []int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, want)
}

// TestProjectAfterFilterSel: projection through a refined selection
// vector only keeps surviving rows.
func TestProjectAfterFilterSel(t *testing.T) {
	rows := genOrders(1000, 23)
	keep := func(r tuple.Tuple) bool { return r[1].Int64() < 10 }
	var want []tuple.Tuple
	for _, r := range rows {
		if keep(r) {
			want = append(want, tuple.Tuple{r[1], r[2]})
		}
	}
	src := WhereColsEqTestFilter(NewSource(rows), keep)
	got, err := Collect(Project(src, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, want)
}

// WhereColsEqTestFilter adapts a row predicate onto the columnar
// selection path for projection tests.
func WhereColsEqTestFilter(child Operator, keep func(tuple.Tuple) bool) Operator {
	return &selTestFilter{child: child, keep: keep}
}

type selTestFilter struct {
	child   Operator
	keep    func(tuple.Tuple) bool
	scratch tuple.Tuple
}

func (f *selTestFilter) Open() error { return f.child.Open() }
func (f *selTestFilter) Next() (*Batch, error) {
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		cb := in.Cols()
		cb.FilterSel(func(i int) bool {
			f.scratch = cb.RowTo(f.scratch, i)
			return f.keep(f.scratch)
		})
		if cb.Len() > 0 {
			return in, nil
		}
		in.Release()
	}
}
func (f *selTestFilter) Close() error { return f.child.Close() }
