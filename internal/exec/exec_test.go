package exec

import (
	"math/rand"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
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
		schema.Column{Name: "orderdate", Kind: value.Int},
	)
)

func genLineitem(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(500)), // orderkey: dense so joins hit
			value.NewInt(rng.Int63n(100)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	return rows
}

func genOrders(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(int64(i) % 500), // every orderkey appears
			value.NewInt(rng.Int63n(50)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	return rows
}

type fixture struct {
	store *dfs.Store
	meter *cluster.Meter
	ex    *Executor
	line  *core.Table
	ord   *core.Table
	lrows []tuple.Tuple
	orows []tuple.Tuple
}

// newFixture loads lineitem and orders co-partitioned on orderkey.
func newFixture(t *testing.T, coPartitioned bool) *fixture {
	t.Helper()
	store := dfs.NewStore(4, 2, 7)
	meter := &cluster.Meter{}
	lrows := genLineitem(3000, 1)
	orows := genOrders(1000, 2)
	joinAttr := 0
	if !coPartitioned {
		joinAttr = -1
	}
	line, err := core.Load(store, "lineitem", lineSch, lrows, core.LoadOptions{
		RowsPerBlock: 200, Seed: 3, JoinAttr: joinAttr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ord, err := core.Load(store, "orders", orderSch, orows, core.LoadOptions{
		RowsPerBlock: 100, Seed: 4, JoinAttr: joinAttr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: store, meter: meter, ex: New(store, meter), line: line, ord: ord, lrows: lrows, orows: orows}
}

// scanRows materializes a pruned, predicated table scan.
func scanRows(t *testing.T, ex *Executor, tbl *core.Table, preds []predicate.Predicate) []tuple.Tuple {
	t.Helper()
	rows, err := Collect(ex.TableScanOp(tbl, preds))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// charged routes op through the one-node fabric's shuffle at class c —
// how a centralized plan meters an exchanged join input.
func charged(ex *Executor, op Operator, key int, c Charge) Operator {
	return ex.ExecFabric().Shuffle([]Operator{op}, key, c).Output(0)
}

// shuffleJoinTables scans both tables (with predicate pushdown) and
// joins them charging the CSJ shuffle factor on every input row — the
// baseline join strategy, in (left, right) column order.
func shuffleJoinTables(t *testing.T, ex *Executor, left *core.Table, lPreds []predicate.Predicate, lCol int,
	right *core.Table, rPreds []predicate.Predicate, rCol int) []tuple.Tuple {
	t.Helper()
	rows, err := Collect(ex.JoinOp(charged(ex, ex.TableScanOp(left, lPreds), lCol, ChargeShuffle), lCol,
		charged(ex, ex.TableScanOp(right, rPreds), rCol, ChargeShuffle), rCol, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// hyperJoin drains a hyper-join into rows and reports what it did.
func hyperJoin(tb testing.TB, ex *Executor, rRefs []core.BlockRef, rPreds []predicate.Predicate, rCol int,
	sRefs []core.BlockRef, sPreds []predicate.Predicate, sCol int, budget int) ([]tuple.Tuple, HyperStats) {
	tb.Helper()
	op := ex.NewHyperJoinOp(PlanHyper(rRefs, rCol, sRefs, sCol, budget), rPreds, sPreds, false)
	rows, err := Collect(op)
	if err != nil {
		tb.Fatal(err)
	}
	return rows, op.Stats()
}

func TestScanMatchesNaiveFilter(t *testing.T) {
	f := newFixture(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1000))}
	got := scanRows(t, f.ex, f.line, preds)
	want := 0
	for _, r := range f.lrows {
		if r[2].Int64() < 1000 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("scan returned %d rows, want %d", len(got), want)
	}
	for _, r := range got {
		if r[2].Int64() >= 1000 {
			t.Fatalf("scan returned non-matching row %v", r)
		}
	}
}

func TestScanPrunesBlocks(t *testing.T) {
	f := newFixture(t, false)
	scanRows(t, f.ex, f.line, nil)
	full := f.meter.Reset()
	scanRows(t, f.ex, f.line, []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(100))})
	narrow := f.meter.Reset()
	if narrow.BlocksScanned >= full.BlocksScanned {
		t.Errorf("selective scan read %d blocks, full scan %d — no pruning",
			narrow.BlocksScanned, full.BlocksScanned)
	}
}

func TestHashJoinRowsMatchesOracle(t *testing.T) {
	// The hash join over row-batch inputs matches the nested-loop oracle,
	// and an empty side yields no rows.
	l := genLineitem(300, 5)
	r := genOrders(200, 6)
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	for _, sides := range [][2][]tuple.Tuple{{nil, r}, {l, nil}} {
		got, err := Collect(ex.JoinOp(NewSource(sides[0]), 0, NewSource(sides[1]), 0, JoinOptions{}))
		if err != nil || got != nil {
			t.Errorf("join with an empty side = %d rows, %v; want none", len(got), err)
		}
	}
}

func TestShuffleJoinTablesCorrect(t *testing.T) {
	f := newFixture(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1500))}
	got := shuffleJoinTables(t, f.ex, f.line, preds, 0, f.ord, nil, 0)
	var lf []tuple.Tuple
	for _, r := range f.lrows {
		if r[2].Int64() < 1500 {
			lf = append(lf, r)
		}
	}
	rowsEqualSorted(t, got, NestedLoopJoin(lf, f.orows, 0, 0))
	c := f.meter.Snapshot()
	if c.ShuffleRows != float64(len(lf)+len(f.orows)) {
		t.Errorf("ShuffleRows = %v, want %d (every filtered input row)", c.ShuffleRows, len(lf)+len(f.orows))
	}
	if c.ResultRows != len(got) {
		t.Errorf("result rows metered %d, want %d", c.ResultRows, len(got))
	}
}

func TestHyperJoinMatchesShuffleJoin(t *testing.T) {
	f := newFixture(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(2000))}
	rRefs := f.line.Refs(0, preds)
	sRefs := f.ord.Refs(0, nil)
	hyperRows, stats := hyperJoin(t, f.ex, rRefs, preds, 0, sRefs, nil, 0, 4)
	var lf []tuple.Tuple
	for _, r := range f.lrows {
		if r[2].Int64() < 2000 {
			lf = append(lf, r)
		}
	}
	rowsEqualSorted(t, hyperRows, NestedLoopJoin(lf, f.orows, 0, 0))
	rowsEqualSorted(t, shuffleJoinTables(t, f.ex, f.line, preds, 0, f.ord, nil, 0), hyperRows)
	if stats.CHyJ < 1.0 {
		t.Errorf("CHyJ = %v < 1 is impossible when all S blocks overlap", stats.CHyJ)
	}
	if stats.Groups == 0 || stats.BuildBlocks != len(rRefs) {
		t.Errorf("stats wrong: %+v", stats)
	}
	if stats.ProbeBlocks != stats.GroupingCost {
		t.Errorf("executed probes %d != planned grouping cost %d", stats.ProbeBlocks, stats.GroupingCost)
	}
}

// TestHyperJoinEmitsColumnarBatches: a group joins block vectors
// directly, so what streams out are columnar batches — R's columns then
// S's, typed — never boxed rows.
func TestHyperJoinEmitsColumnarBatches(t *testing.T) {
	f := newFixture(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(2000))}
	op := f.ex.NewHyperJoinOp(PlanHyper(f.line.Refs(0, preds), 0, f.ord.Refs(0, nil), 0, 4), preds, nil, false)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	rows := 0
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		cb := b.Cols()
		if cb.NumCols() != lineSch.NumCols()+orderSch.NumCols() || cb.Col(0).Kind() != value.Int {
			t.Fatalf("batch has %d columns, first of kind %v", cb.NumCols(), cb.Col(0).Kind())
		}
		keys, okeys := cb.Col(0).Ints(), cb.Col(lineSch.NumCols()).Ints()
		for i := range keys {
			if keys[i] != okeys[i] {
				t.Fatalf("row %d joins lineitem key %d with orders key %d", i, keys[i], okeys[i])
			}
		}
		rows += b.Len()
		b.Release()
	}
	if rows == 0 {
		t.Fatal("hyper-join produced nothing")
	}
}

// TestHyperJoinBuildIsRightEmitsLeftRight: a hyper-join that builds on
// the plan's right side (orders) emits columnar batches in (left,
// right) order by itself — lineitem's columns, then orders' — holding
// the same rows as the unflipped join and the nested-loop oracle.
func TestHyperJoinBuildIsRightEmitsLeftRight(t *testing.T) {
	f := newFixture(t, true)
	lRefs, oRefs := f.line.Refs(0, nil), f.ord.Refs(0, nil)
	op := f.ex.NewHyperJoinOp(PlanHyper(oRefs, 0, lRefs, 0, 4), nil, nil, true)
	var got []tuple.Tuple
	if _, err := Drain(nil, op, func(b *Batch) error {
		cb := b.Cols()
		if cb == nil {
			t.Fatalf("flipped hyper-join emitted a row batch of %d rows", b.Len())
		}
		if cb.NumCols() != lineSch.NumCols()+orderSch.NumCols() {
			t.Fatalf("batch has %d columns", cb.NumCols())
		}
		got = append(got, b.Rows()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("flipped hyper-join produced nothing")
	}
	unflipped, _ := hyperJoin(t, f.ex, lRefs, nil, 0, oRefs, nil, 0, 4)
	rowsEqualSorted(t, got, unflipped)
	rowsEqualSorted(t, got, NestedLoopJoin(f.lrows, f.orows, 0, 0))
}

func TestHyperJoinCoPartitionedCHyJNearOne(t *testing.T) {
	// Co-partitioned two-phase trees: each lineitem block overlaps few
	// orders blocks, so CHyJ should be near 1 with a decent budget (§4.2).
	f := newFixture(t, true)
	rRefs := f.line.Refs(0, nil)
	sRefs := f.ord.Refs(0, nil)
	_, stats := hyperJoin(t, f.ex, rRefs, nil, 0, sRefs, nil, 0, 8)
	if stats.CHyJ > 2.5 {
		t.Errorf("co-partitioned CHyJ = %.2f, want ≲ 2 (paper reports ≈2 on real workloads)", stats.CHyJ)
	}
}

func TestHyperJoinCheaperThanShuffleWhenCoPartitioned(t *testing.T) {
	f := newFixture(t, true)
	model := cluster.Default()

	rRefs := f.line.Refs(0, nil)
	sRefs := f.ord.Refs(0, nil)
	hyperJoin(t, f.ex, rRefs, nil, 0, sRefs, nil, 0, 8)
	hyper := f.meter.Reset()

	shuffleJoinTables(t, f.ex, f.line, nil, 0, f.ord, nil, 0)
	shuffle := f.meter.Reset()

	if hyper.CostUnits(model) >= shuffle.CostUnits(model) {
		t.Errorf("hyper-join units %.0f should beat shuffle %.0f on co-partitioned tables",
			hyper.CostUnits(model), shuffle.CostUnits(model))
	}
}

func TestHyperJoinEmptySides(t *testing.T) {
	f := newFixture(t, true)
	rows, stats := hyperJoin(t, f.ex, nil, nil, 0, f.ord.Refs(0, nil), nil, 0, 4)
	if rows != nil || stats.Groups != 0 {
		t.Errorf("empty build side should produce nothing")
	}
	rows, _ = hyperJoin(t, f.ex, f.line.Refs(0, nil), nil, 0, nil, nil, 0, 4)
	if rows != nil {
		t.Errorf("empty probe side should produce nothing")
	}
}

func TestHyperJoinWithPredicatesBothSides(t *testing.T) {
	f := newFixture(t, true)
	lPred := []predicate.Predicate{predicate.NewCmp(2, predicate.GE, value.NewInt(500))}
	oPred := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(2000))}
	got, _ := hyperJoin(t, f.ex, f.line.Refs(0, lPred), lPred, 0, f.ord.Refs(0, oPred), oPred, 0, 4)
	var lf, of []tuple.Tuple
	for _, r := range f.lrows {
		if r[2].Int64() >= 500 {
			lf = append(lf, r)
		}
	}
	for _, r := range f.orows {
		if r[2].Int64() < 2000 {
			of = append(of, r)
		}
	}
	want := NestedLoopJoin(lf, of, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("hyper join with preds: %d rows, oracle %d", len(got), len(want))
	}
}

func TestShuffleJoinRowsMeters(t *testing.T) {
	f := newFixture(t, true)
	l := genLineitem(100, 9)
	r := genOrders(50, 10)
	build := charged(f.ex, NewSource(l), 0, ChargeShuffle)
	probe := charged(f.ex, NewSource(r), 0, ChargeShuffle)
	if _, err := Count(f.ex.JoinOp(build, 0, probe, 0, JoinOptions{})); err != nil {
		t.Fatal(err)
	}
	c := f.meter.Snapshot()
	if c.ShuffleRows != 150 {
		t.Errorf("ShuffleRows = %v, want 150", c.ShuffleRows)
	}
	if c.IntermediateRows != 0 {
		t.Errorf("shuffle join metered %v intermediate rows, want 0", c.IntermediateRows)
	}
}

func TestNonCoPartitionedHyperStillCorrect(t *testing.T) {
	// Even when trees are selection-only (blocks overlap heavily on the
	// join attribute), hyper-join must stay correct — just with high CHyJ.
	f := newFixture(t, false)
	rRefs := f.line.Refs(0, nil)
	sRefs := f.ord.Refs(0, nil)
	got, stats := hyperJoin(t, f.ex, rRefs, nil, 0, sRefs, nil, 0, 4)
	want := NestedLoopJoin(f.lrows, f.orows, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("hyper join on random partitioning: %d rows, oracle %d", len(got), len(want))
	}
	if stats.CHyJ < 1 {
		t.Errorf("CHyJ < 1")
	}
}

func TestSortRowsDeterministic(t *testing.T) {
	rows := genLineitem(50, 11)
	a := make([]tuple.Tuple, len(rows))
	copy(a, rows)
	rand.New(rand.NewSource(1)).Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	SortRows(a)
	b := make([]tuple.Tuple, len(rows))
	copy(b, rows)
	SortRows(b)
	for i := range a {
		for c := range a[i] {
			if value.Compare(a[i][c], b[i][c]) != 0 {
				t.Fatalf("SortRows not canonical")
			}
		}
	}
}

func TestExecutorWorkersOverride(t *testing.T) {
	f := newFixture(t, true)
	f.ex.Workers = 1
	rows := scanRows(t, f.ex, f.line, nil)
	if len(rows) != len(f.lrows) {
		t.Errorf("single-worker scan lost rows")
	}
}

func TestHyperJoinNullKeysNeverMatch(t *testing.T) {
	// Regression: the old hyper-join bucketed NULL keys at hashKey()==0
	// and tupleKeyEqual(NULL, NULL) was true, so NULL rows joined. Load
	// tables whose join column is NULL on some rows and cross-check the
	// (null-skipping) oracle.
	store := dfs.NewStore(4, 2, 7)
	meter := &cluster.Meter{}
	lrows := genLineitem(1500, 41)
	orows := genOrders(600, 42)
	for i := 0; i < len(lrows); i += 5 {
		lrows[i][0] = value.Value{}
	}
	for i := 0; i < len(orows); i += 7 {
		orows[i][0] = value.Value{}
	}
	line, err := core.Load(store, "lineitem_nulls", lineSch, lrows, core.LoadOptions{
		RowsPerBlock: 200, Seed: 3, JoinAttr: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ord, err := core.Load(store, "orders_nulls", orderSch, orows, core.LoadOptions{
		RowsPerBlock: 100, Seed: 4, JoinAttr: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := New(store, meter)
	got, _ := hyperJoin(t, ex, line.Refs(0, nil), nil, 0, ord.Refs(0, nil), nil, 0, 4)
	want := NestedLoopJoin(lrows, orows, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("hyper join with null keys: %d rows, oracle %d", len(got), len(want))
	}
	for _, row := range got {
		if row[0].IsNull() || row[3].IsNull() {
			t.Fatalf("hyper join matched NULL keys: %v", row)
		}
	}
	// The shuffle path over the same tables must agree.
	meter.Reset()
	shuffled := shuffleJoinTables(t, ex, line, nil, 0, ord, nil, 0)
	if len(shuffled) != len(want) {
		t.Fatalf("shuffle join with null keys: %d rows, oracle %d", len(shuffled), len(want))
	}
}
