package exec

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func TestWorkersDefaultsToNodeCount(t *testing.T) {
	store := dfs.NewStore(7, 2, 1)
	ex := New(store, &cluster.Meter{})
	if got := ex.workers(); got != 7 {
		t.Errorf("workers() = %d, want node count 7", got)
	}
	ex.Workers = 3
	if got := ex.workers(); got != 3 {
		t.Errorf("workers() = %d, want override 3", got)
	}
}

func TestWorkersFloorOfOne(t *testing.T) {
	// A store constructed with < 1 nodes clamps to 1; workers() must
	// never return 0 even then.
	store := dfs.NewStore(0, 1, 1)
	ex := New(store, &cluster.Meter{})
	if got := ex.workers(); got < 1 {
		t.Errorf("workers() = %d, want >= 1", got)
	}
}

func TestScanOpMoreWorkersThanBlocks(t *testing.T) {
	f := newFixture(t, true)
	f.ex.Workers = 64 // far more than the fixture's block count
	rows, err := Collect(f.ex.TableScanOp(f.line, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(f.lrows) {
		t.Errorf("64-worker scan returned %d rows, want %d", len(rows), len(f.lrows))
	}
}

func TestScanOpEmptyRefs(t *testing.T) {
	f := newFixture(t, true)
	rows, err := Collect(f.ex.ScanOp(nil, nil))
	if err != nil || rows != nil {
		t.Errorf("empty scan: rows=%v err=%v, want nil/nil", rows, err)
	}
}

func TestScanOpEarlyClose(t *testing.T) {
	// Abandoning a stream mid-drain must not deadlock or leak workers:
	// Close unblocks producers stuck on the bounded channel.
	f := newFixture(t, true)
	op := f.ex.TableScanOp(f.line, nil)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := op.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		b.Release()
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close must be safe.
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinOpMatchesHashJoinRows(t *testing.T) {
	l := genLineitem(400, 21)
	r := genOrders(300, 22)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

func TestJoinOpBuildIsRightKeepsColumnOrder(t *testing.T) {
	l := genLineitem(100, 23)
	r := genOrders(80, 24)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	// Build on the right side but emit (left, right) order.
	got, err := Collect(ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

func TestJoinOpChargesEmptyBuildProbeRows(t *testing.T) {
	// With an empty build side the probe must still drain and meter.
	r := genOrders(50, 25)
	store := dfs.NewStore(2, 1, 1)
	meter := &cluster.Meter{}
	ex := New(store, meter)
	rows, err := Collect(ex.JoinOp(NewSource(nil), 0, NewSource(r), 0,
		JoinOptions{BuildCharge: ChargeShuffle, ProbeCharge: ChargeShuffle}))
	if err != nil {
		t.Fatal(err)
	}
	if rows != nil {
		t.Errorf("empty build side should produce no rows")
	}
	if c := meter.Snapshot(); c.ShuffleRows != 50 {
		t.Errorf("ShuffleRows = %v, want 50 (probe side metered)", c.ShuffleRows)
	}
}

func TestWhereFiltersMidPipeline(t *testing.T) {
	rows := genLineitem(500, 26)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1000))}
	got, err := Collect(Where(NewSource(rows), preds))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r[2].Int64() < 1000 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("Where kept %d rows, want %d", len(got), want)
	}
}

// TestHyperJoinOpStreamsSameRowsAsAdapter: counting a hyper-join's
// stream and materializing it through Collect see the same rows and the
// same stats.
func TestHyperJoinOpStreamsSameRowsAsAdapter(t *testing.T) {
	f := newFixture(t, true)
	rRefs := f.line.Refs(0, nil)
	sRefs := f.ord.Refs(0, nil)
	op := f.ex.NewHyperJoinOp(rRefs, nil, 0, sRefs, nil, 0, 4, false)
	n, err := Count(op)
	if err != nil {
		t.Fatal(err)
	}
	rows, stats := hyperJoin(t, f.ex, rRefs, nil, 0, sRefs, nil, 0, 4)
	if n != len(rows) {
		t.Errorf("streamed %d rows, Collect materialized %d", n, len(rows))
	}
	st := op.Stats()
	if st.Groups != stats.Groups || st.BuildBlocks != stats.BuildBlocks ||
		st.ProbeBlocks != stats.ProbeBlocks || st.CHyJ != stats.CHyJ {
		t.Errorf("streamed stats %+v, collected stats %+v", st, stats)
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := NewColBatch(1)
	if b.Len() != 0 || b.Cols().NumCols() != 1 {
		t.Fatalf("fresh batch len=%d cols=%d", b.Len(), b.Cols().NumCols())
	}
	b.AppendColRow(tuple.Tuple{value.NewInt(1)})
	if b.Len() != 1 || b.Full() {
		t.Fatalf("after one append: len=%d full=%v", b.Len(), b.Full())
	}
	b.Release()
	b2 := NewColBatch(2)
	if b2.Len() != 0 || b2.Cols().NumCols() != 2 {
		t.Errorf("pooled batch not reset: len=%d cols=%d", b2.Len(), b2.Cols().NumCols())
	}
	b2.Release()
}

func TestCollectAndCountAgree(t *testing.T) {
	f := newFixture(t, true)
	rows, err := Collect(f.ex.TableScanOp(f.line, nil))
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(f.ex.TableScanOp(f.line, nil))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Errorf("Count = %d, Collect = %d rows", n, len(rows))
	}
}

// TestBatchAppendBeyondCapacityUnpools: a pooled batch whose vectors
// grow past DefaultBatchSize rows one append at a time must leave the
// pool, or the pool accumulates ever-larger vector storage (pool
// poisoning).
func TestBatchAppendBeyondCapacityUnpools(t *testing.T) {
	row := tuple.Tuple{value.NewInt(7), value.NewString("x")}
	b := NewColBatch(2)
	if !b.pooled {
		t.Fatal("NewColBatch returned an un-pooled batch")
	}
	for i := 0; i < DefaultBatchSize; i++ {
		b.AppendColRow(row)
	}
	if !b.pooled {
		t.Fatal("batch un-pooled before exceeding capacity")
	}
	b.AppendColRow(row) // grows the vectors past capacity
	if b.pooled {
		t.Error("grown batch still pooled — oversized vectors would enter the pool")
	}
	if b.Len() != DefaultBatchSize+1 {
		t.Errorf("grown batch len %d, want %d", b.Len(), DefaultBatchSize+1)
	}
	b.Release() // must be a no-op on the un-pooled batch
}

// TestColBatchGrowthUnpools is the bulk-transpose twin of the test
// above: one oversized AppendColRows un-pools the batch up front.
func TestColBatchGrowthUnpools(t *testing.T) {
	row := tuple.Tuple{value.NewInt(7), value.NewString("x")}
	rows := make([]tuple.Tuple, DefaultBatchSize+1)
	for i := range rows {
		rows[i] = row
	}
	bb := NewColBatch(2)
	bb.AppendColRows(rows)
	if bb.pooled {
		t.Error("bulk-grown columnar batch still pooled")
	}
	bb.Release()

	// A bulk append that exactly fills the batch stays pooled, and the
	// pool keeps handing out reset columnar batches afterwards.
	cb := NewColBatch(2)
	cb.AppendColRows(rows[:DefaultBatchSize])
	if !cb.pooled {
		t.Error("exactly-full columnar batch was un-pooled")
	}
	cb.Release()
	for i := 0; i < 8; i++ {
		nb := NewColBatch(2)
		if nb.Len() != 0 || nb.Cols().FullLen() != 0 {
			t.Fatalf("pool handed out a dirty columnar batch: len=%d fullLen=%d", nb.Len(), nb.Cols().FullLen())
		}
		nb.Release()
	}
}

// nullableRows builds rows whose join key (column 0) is NULL every
// nullEvery-th row, tagged in column 1.
func nullableRows(n, nullEvery int, keyMod int64, tagBase int64) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		key := value.NewInt(int64(i) % keyMod)
		if nullEvery > 0 && i%nullEvery == 0 {
			key = value.Value{}
		}
		rows[i] = tuple.Tuple{key, value.NewInt(tagBase + int64(i))}
	}
	return rows
}

func TestJoinOpNullKeysNeverMatch(t *testing.T) {
	// Regression: the old map[string] join keyed NULL's binary encoding
	// like any other value, so NULL build rows matched NULL probe rows.
	l := nullableRows(400, 3, 50, 0)
	r := nullableRows(300, 4, 50, 10000)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	want := NestedLoopJoin(l, r, 0, 0) // oracle skips null keys
	if len(got) != len(want) {
		t.Fatalf("join with null keys: %d rows, oracle %d", len(got), len(want))
	}
	for _, row := range got {
		if row[0].IsNull() || row[2].IsNull() {
			t.Fatalf("output row joined on a NULL key: %v", row)
		}
	}
}

func TestHashJoinRowsNullKeysNeverMatch(t *testing.T) {
	// The row-input join: NULL keys on either side match nothing.
	l := nullableRows(200, 2, 30, 0)
	r := nullableRows(150, 5, 30, 10000)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	want := NestedLoopJoin(l, r, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("row-input join with null keys: %d rows, oracle %d", len(got), len(want))
	}
	for _, row := range got {
		if row[0].IsNull() || row[2].IsNull() {
			t.Fatalf("row-input join joined on a NULL key: %v", row)
		}
	}
	// All-null sides join to nothing.
	allNull := nullableRows(50, 1, 30, 0)
	if out, err := Collect(ex.JoinOp(NewSource(allNull), 0, NewSource(allNull), 0, JoinOptions{})); err != nil || len(out) != 0 {
		t.Errorf("all-null join produced %d rows (%v), want 0", len(out), err)
	}
}

// churnBatchPool fills and releases enough pooled batches that the
// vectors of any batch released before it are overwritten.
func churnBatchPool() {
	junk := tuple.Tuple{value.NewInt(-777), value.NewInt(-777), value.NewInt(-777),
		value.NewInt(-777), value.NewInt(-777), value.NewInt(-777)}
	for i := 0; i < 64; i++ {
		b := NewColBatch(len(junk))
		for k := 0; k < DefaultBatchSize; k++ {
			b.AppendColRow(junk)
		}
		b.Release()
	}
}

// TestCollectCopiesOwnedRows: the rows Collect returns from a join —
// boxed by Batch.Rows — stay intact after the join's batches are
// released and the pool hands their vectors to other operators.
func TestCollectCopiesOwnedRows(t *testing.T) {
	l := genLineitem(4000, 28)
	r := genOrders(2000, 29)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	churnBatchPool()
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

// TestWhereOverJoinOutputKeepsRowsValid: Where narrows the selection of
// join-output batches; the rows Collect boxes from them must survive
// the batches' release and pool reuse, and only matching rows survive.
func TestWhereOverJoinOutputKeepsRowsValid(t *testing.T) {
	l := genLineitem(3000, 33)
	r := genOrders(1500, 34)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	join := ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true})
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1200))}
	got, err := Collect(Where(join, preds))
	if err != nil {
		t.Fatal(err)
	}
	churnBatchPool()
	var want []tuple.Tuple
	for _, row := range NestedLoopJoin(l, r, 0, 0) {
		if row[2].Int64() < 1200 {
			want = append(want, row)
		}
	}
	rowsEqualSorted(t, got, want)
}

// TestCollectAliasesViewRows pins what Collect over a Source returns
// now that every batch is columnar: rows equal to the caller's, boxed
// into fresh storage. They no longer alias the source rows, so a
// caller may keep or mutate them without touching its input.
func TestCollectAliasesViewRows(t *testing.T) {
	rows := genOrders(100, 29)
	out, err := Collect(NewSource(rows))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0][0] == &rows[0][0] {
		t.Error("Collect over a Source aliases the source rows")
	}
	churnBatchPool()
	rowsEqualSorted(t, out, rows)
}

func TestJoinOverJoinBuildSideOwnedRows(t *testing.T) {
	// Regression: a join whose BUILD side is another join receives
	// pooled batches; the build must copy their rows before releasing
	// the batch, or recycled vectors corrupt the hash table.
	a := genLineitem(2000, 51)
	b := genOrders(1500, 52)
	c := genOrders(2500, 53)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	inner := ex.JoinOp(NewSource(b), 0, NewSource(a), 0, JoinOptions{BuildIsRight: true})
	outer := ex.JoinOp(inner, 0, NewSource(c), 0, JoinOptions{})
	got, err := Collect(outer)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(NestedLoopJoin(a, b, 0, 0), c, 0, 0))
}
