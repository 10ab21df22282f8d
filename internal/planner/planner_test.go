package planner

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var (
	lineSch = schema.MustNew(
		schema.Column{Name: "orderkey", Kind: value.Int},
		schema.Column{Name: "partkey", Kind: value.Int},
		schema.Column{Name: "shipdate", Kind: value.Int},
	)
	orderSch = schema.MustNew(
		schema.Column{Name: "orderkey", Kind: value.Int},
		schema.Column{Name: "custkey", Kind: value.Int},
	)
	custSch = schema.MustNew(
		schema.Column{Name: "custkey", Kind: value.Int},
		schema.Column{Name: "nation", Kind: value.Int},
	)
)

// collect compiles a plan and materializes its result.
func collect(r *Runner, n Node) ([]tuple.Tuple, *Report, error) {
	c, err := r.Compile(n)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Collect(c.Root)
	return rows, c.Report, err
}

// collectSpec is collect for a bound spec.
func collectSpec(r *Runner, b *query.Bound) ([]tuple.Tuple, *Report, error) {
	c, err := r.CompileSpec(b)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Collect(c.Root)
	return rows, c.Report, err
}

type fixture struct {
	store               *dfs.Store
	meter               *cluster.Meter
	runner              *Runner
	line, ord, cust     *core.Table
	lrows, orows, crows []tuple.Tuple
}

func setup(t *testing.T, coPart bool) *fixture {
	t.Helper()
	store := dfs.NewStore(4, 2, 3)
	rng := rand.New(rand.NewSource(11))
	var lrows, orows, crows []tuple.Tuple
	for i := 0; i < 3000; i++ {
		lrows = append(lrows, tuple.Tuple{
			value.NewInt(rng.Int63n(400)),
			value.NewInt(rng.Int63n(100)),
			value.NewInt(rng.Int63n(2500)),
		})
	}
	for i := 0; i < 800; i++ {
		orows = append(orows, tuple.Tuple{
			value.NewInt(int64(i) % 400),
			value.NewInt(rng.Int63n(60)),
		})
	}
	for i := 0; i < 60; i++ {
		crows = append(crows, tuple.Tuple{
			value.NewInt(int64(i)),
			value.NewInt(rng.Int63n(5)),
		})
	}
	joinAttr := 0
	if !coPart {
		joinAttr = -1
	}
	line, err := core.Load(store, "lineitem", lineSch, lrows, core.LoadOptions{RowsPerBlock: 200, Seed: 1, JoinAttr: joinAttr})
	if err != nil {
		t.Fatal(err)
	}
	ord, err := core.Load(store, "orders", orderSch, orows, core.LoadOptions{RowsPerBlock: 100, Seed: 2, JoinAttr: joinAttr})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := core.Load(store, "customer", custSch, crows, core.LoadOptions{RowsPerBlock: 16, Seed: 3, JoinAttr: -1})
	if err != nil {
		t.Fatal(err)
	}
	meter := &cluster.Meter{}
	runner := NewRunner(exec.New(store, meter), cluster.Default())
	return &fixture{store: store, meter: meter, runner: runner,
		line: line, ord: ord, cust: cust, lrows: lrows, orows: orows, crows: crows}
}

func oracleJoin(l, r []tuple.Tuple, lc, rc int) []tuple.Tuple {
	return exec.NestedLoopJoin(l, r, lc, rc)
}

func filter(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

func sameRows(t *testing.T, got, want []tuple.Tuple, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", label, len(got), len(want))
	}
	exec.SortRows(got)
	exec.SortRows(want)
	for i := range got {
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("%s: row %d differs", label, i)
			}
		}
	}
}

func TestScanPlan(t *testing.T) {
	f := setup(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(500))}
	rows, rep, err := collect(f.runner, &Scan{Table: f.line, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joins) != 0 {
		t.Errorf("scan should report no joins")
	}
	if len(rows) != len(filter(f.lrows, preds)) {
		t.Errorf("scan rows = %d, want %d", len(rows), len(filter(f.lrows, preds)))
	}
}

func TestCase1HyperJoinChosen(t *testing.T) {
	f := setup(t, true)
	plan := &Join{
		Left:  &Scan{Table: f.line},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joins) != 1 || rep.Joins[0].Strategy != StratHyper {
		t.Fatalf("co-partitioned join should use hyper: %+v", rep.Joins)
	}
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "case1")
}

func TestForceShuffle(t *testing.T) {
	f := setup(t, true)
	f.runner.ForceShuffle = true
	plan := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins[0].Strategy != StratShuffle {
		t.Fatalf("ForceShuffle ignored: %+v", rep.Joins)
	}
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "force-shuffle")
}

func TestCase3FallsBackToShuffleOrOpportunisticHyper(t *testing.T) {
	f := setup(t, false) // selection-only trees
	plan := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joins) != 1 {
		t.Fatalf("one join expected")
	}
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "case3")
}

func TestCase2CombinationDuringTransition(t *testing.T) {
	f := setup(t, true)
	// Push lineitem into a partial transition: create a partkey tree and
	// move ~30% of data into it.
	transition(t, f.line)
	plan := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins[0].Strategy != StratCombination {
		t.Fatalf("mid-transition join should be combination: %+v", rep.Joins)
	}
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "case2")
}

func TestMultiJoinLeftDeepSemiShuffle(t *testing.T) {
	f := setup(t, true)
	// (lineitem ⋈ orders) ⋈ customer on custkey: the intermediate joins a
	// base table; customer has no custkey tree here, so both sides shuffle.
	inner := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	outer := &Join{Left: inner, Right: &Scan{Table: f.cust},
		LCol: lineSch.NumCols() + 1, RCol: 0} // o_custkey in concat row
	rows, rep, err := collect(f.runner, outer)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Joins) != 2 {
		t.Fatalf("two joins expected: %+v", rep.Joins)
	}
	lo := oracleJoin(f.lrows, f.orows, 0, 0)
	want := oracleJoin(lo, f.crows, lineSch.NumCols()+1, 0)
	sameRows(t, rows, want, "multi-join")
}

func TestSemiShuffleUsesTableTree(t *testing.T) {
	f := setup(t, true)
	// orders has a tree on orderkey (col 0): joining an intermediate to it
	// on orderkey should be semi-shuffle (only the intermediate shuffles).
	inner := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.cust}, LCol: 1, RCol: 0}
	// lineitem ⋈ customer on partkey=custkey is semantically odd but fine
	// structurally; then join to orders on l_orderkey.
	outer := &Join{Left: inner, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	_, rep, err := collect(f.runner, outer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins[1].Strategy != StratSemiShuffle {
		t.Fatalf("expected semi-shuffle into tree-partitioned table: %+v", rep.Joins)
	}
}

func TestRightScanLeftIntermediateOrder(t *testing.T) {
	f := setup(t, true)
	// Scan on the LEFT, intermediate on the RIGHT: column order of output
	// must still be (left, right).
	inner := &Join{Left: &Scan{Table: f.ord}, Right: &Scan{Table: f.cust}, LCol: 1, RCol: 0}
	outer := &Join{Left: &Scan{Table: f.line}, Right: inner, LCol: 0, RCol: 0}
	rows, _, err := collect(f.runner, outer)
	if err != nil {
		t.Fatal(err)
	}
	oc := oracleJoin(f.orows, f.crows, 1, 0)
	want := oracleJoin(f.lrows, oc, 0, 0)
	sameRows(t, rows, want, "right-scan order")
}

// TestHyperBuildSideFlipKeepsColumnOrder: orders is smaller than
// lineitem, so the hyper-join builds on orders — on the plan's right
// side when lineitem is the left input. Compiled in both orientations,
// the root emits only columnar batches, and its rows are the oracle's
// in (left, right) column order.
func TestHyperBuildSideFlipKeepsColumnOrder(t *testing.T) {
	f := setup(t, true)
	for _, tc := range []struct {
		name         string
		left, right  *Scan
		lrows, rrows []tuple.Tuple
		flip         bool
	}{
		{"orders-left", &Scan{Table: f.ord}, &Scan{Table: f.line}, f.orows, f.lrows, false},
		{"lineitem-left", &Scan{Table: f.line}, &Scan{Table: f.ord}, f.lrows, f.orows, true},
	} {
		if p := f.runner.planTableJoin(tc.left, 0, tc.right, 0); p.strategy != StratHyper || p.flip != tc.flip {
			t.Fatalf("%s: strategy %q flip %v, want hyper flip %v", tc.name, p.strategy, p.flip, tc.flip)
		}
		comp, err := f.runner.Compile(&Join{Left: tc.left, Right: tc.right, LCol: 0, RCol: 0})
		if err != nil {
			t.Fatal(err)
		}
		var rows []tuple.Tuple
		if _, err := exec.Drain(nil, comp.Root, func(b *exec.Batch) error {
			if b.Cols() == nil {
				t.Fatalf("%s: root emitted a row batch of %d rows", tc.name, b.Len())
			}
			rows = append(rows, b.Rows()...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sameRows(t, rows, oracleJoin(tc.lrows, tc.rrows, 0, 0), tc.name)
	}
}

func TestHyperCheaperThanShuffleEndToEnd(t *testing.T) {
	f := setup(t, true)
	model := cluster.Default()
	plan := &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	if _, _, err := collect(f.runner, plan); err != nil {
		t.Fatal(err)
	}
	hyper := f.meter.Reset()
	f.runner.ForceShuffle = true
	if _, _, err := collect(f.runner, plan); err != nil {
		t.Fatal(err)
	}
	shuffle := f.meter.Reset()
	if hyper.SimSeconds(model) >= shuffle.SimSeconds(model) {
		t.Errorf("hyper %.2fs should beat shuffle %.2fs", hyper.SimSeconds(model), shuffle.SimSeconds(model))
	}
}

func TestPredicatePushdownInJoin(t *testing.T) {
	f := setup(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(800))}
	plan := &Join{
		Left:  &Scan{Table: f.line, Preds: preds},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	rows, _, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleJoin(filter(f.lrows, preds), f.orows, 0, 0)
	sameRows(t, rows, want, "pushdown")
}

// TestRefMemoScopedToCompile pins the per-compile ref memo: inside one
// scope a (table, tree, predicates) resolution runs once and is shared
// capacity-capped, it matches what the executor's TableRefs resolves,
// and no scope outlives its compile — layouts change between queries.
func TestRefMemoScopedToCompile(t *testing.T) {
	f := setup(t, true)
	r := f.runner
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1200))}
	s := &Scan{Table: f.line, Preds: preds}
	want := r.Ex.TableRefs(f.line, preds)

	end := r.memoRefs()
	a, b := r.scanRefs(s), r.scanRefs(&Scan{Table: f.line, Preds: preds})
	if len(a) == 0 || len(a) != len(want) {
		t.Fatalf("memoized scan resolved %d refs, TableRefs %d", len(a), len(want))
	}
	for i := range a {
		if a[i].Path != want[i].Path {
			t.Fatalf("ref %d: memoized %q, TableRefs %q", i, a[i].Path, want[i].Path)
		}
	}
	if &a[0] != &b[0] {
		t.Fatal("the same scan resolved twice inside one compile")
	}
	if cap(a) != len(a) {
		t.Fatalf("memoized refs have spare capacity %d > %d: an append would write into the shared array", cap(a), len(a))
	}
	if tr := r.treeRefs(f.line, f.line.TreeFor(0), preds); &tr[0] != &a[0] {
		t.Fatal("a single-tree table's scan set was not shared with its tree resolution")
	}
	end()
	if r.refMemo != nil {
		t.Fatal("memo outlived its scope")
	}
	if c := r.scanRefs(s); &c[0] == &a[0] {
		t.Fatal("refs resolved outside a compile came from a finished compile's memo")
	}

	if _, err := r.Compile(&Join{Left: s, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}); err != nil {
		t.Fatal(err)
	}
	if r.refMemo != nil {
		t.Fatal("Compile left its ref memo behind")
	}
}

func TestUsesVisitOrder(t *testing.T) {
	line := &core.Table{Name: "lineitem", Schema: lineSch} // orderkey, partkey, shipdate
	ord := &core.Table{Name: "orders", Schema: orderSch}   // orderkey, custkey
	cust := &core.Table{Name: "customer", Schema: custSch} // custkey, nation
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(500))}
	scan := func(tb *core.Table) *Scan { return &Scan{Table: tb} }
	type vote struct {
		table string
		attr  int
	}
	cases := []struct {
		name string
		plan Node
		want []vote
	}{
		{"scan", &Scan{Table: line, Preds: preds}, []vote{{"lineitem", -1}}},
		{
			// The outer join reads orders.custkey, but orders already
			// voted orderkey in the inner join.
			"left-deep",
			&Join{
				Left:  &Join{Left: scan(line), Right: scan(ord), LCol: 0, RCol: 0},
				Right: scan(cust), LCol: 3 + 1, RCol: 0,
			},
			[]vote{{"lineitem", 0}, {"orders", 0}, {"customer", 0}},
		},
		{
			// The right subtree is visited before the root, so orders
			// votes custkey there and the root's read of orderkey loses.
			"right-deep",
			&Join{
				Left:  scan(line),
				Right: &Join{Left: scan(ord), Right: scan(cust), LCol: 1, RCol: 0},
				LCol:  0, RCol: 0,
			},
			[]vote{{"lineitem", 0}, {"orders", 1}, {"customer", 0}},
		},
		{
			// Each leaf of a self-join votes on its own.
			"self-join",
			&Join{Left: scan(ord), Right: scan(ord), LCol: 1, RCol: 0},
			[]vote{{"orders", 1}, {"orders", 0}},
		},
	}
	for _, tc := range cases {
		uses := Uses(tc.plan)
		var got []vote
		for _, u := range uses {
			got = append(got, vote{u.Table.Name, u.JoinAttr})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: votes %v, want %v", tc.name, got, tc.want)
		}
	}
	if uses := Uses(&Scan{Table: line, Preds: preds}); &uses[0].Preds[0] != &preds[0] {
		t.Errorf("Uses copied the Scan's predicates instead of sharing its slice")
	}
}
