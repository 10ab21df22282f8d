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
	want := HashJoinRows(l, r, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("JoinOp %d rows, HashJoinRows %d", len(got), len(want))
	}
	SortRows(got)
	SortRows(want)
	for i := range got {
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
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
	want := HashJoinRows(l, r, 0, 0)
	SortRows(got)
	SortRows(want)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d differs — column order not preserved", i)
			}
		}
	}
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

func TestHyperJoinOpStreamsSameRowsAsAdapter(t *testing.T) {
	f := newFixture(t, true)
	rRefs := f.line.Refs(0, nil)
	sRefs := f.ord.Refs(0, nil)
	op := f.ex.NewHyperJoinOp(rRefs, nil, 0, sRefs, nil, 0, 4)
	n, err := Count(op)
	if err != nil {
		t.Fatal(err)
	}
	rows, stats := f.ex.HyperJoin(rRefs, nil, 0, sRefs, nil, 0, 4)
	if n != len(rows) {
		t.Errorf("streamed %d rows, adapter materialized %d", n, len(rows))
	}
	st := op.Stats()
	if st.Groups != stats.Groups || st.BuildBlocks != stats.BuildBlocks ||
		st.ProbeBlocks != stats.ProbeBlocks || st.CHyJ != stats.CHyJ {
		t.Errorf("streamed stats %+v, adapter stats %+v", st, stats)
	}
}

func TestSourceBatchesAreViews(t *testing.T) {
	rows := genLineitem(3*DefaultBatchSize+17, 27)
	src := NewSource(rows)
	if err := src.Open(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > DefaultBatchSize {
			t.Errorf("batch of %d rows exceeds DefaultBatchSize", b.Len())
		}
		if &b.Rows()[0][0] != &rows[total][0] {
			t.Errorf("source batch at row %d is a copy, want a view", total)
		}
		total += b.Len()
		b.Release() // must be a no-op for view batches
	}
	if total != len(rows) {
		t.Errorf("source streamed %d rows, want %d", total, len(rows))
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := NewBatch()
	if b.Len() != 0 || cap(b.rows) != DefaultBatchSize {
		t.Fatalf("fresh batch len=%d cap=%d", b.Len(), cap(b.rows))
	}
	b.Append(tuple.Tuple{value.NewInt(1)})
	if b.Len() != 1 || b.Full() {
		t.Fatalf("after one append: len=%d full=%v", b.Len(), b.Full())
	}
	b.Release()
	b2 := NewBatch()
	if b2.Len() != 0 {
		t.Errorf("pooled batch not reset: len=%d", b2.Len())
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

func TestBatchAppendBeyondCapacityUnpools(t *testing.T) {
	// Growing a pooled batch past DefaultBatchSize must un-pool it:
	// otherwise the pool silently accumulates oversized backing arrays.
	b := NewBatch()
	if !b.pooled {
		t.Fatal("NewBatch returned an un-pooled batch")
	}
	row := tuple.Tuple{value.NewInt(1)}
	for i := 0; i < DefaultBatchSize; i++ {
		b.Append(row)
	}
	if !b.pooled {
		t.Fatal("batch un-pooled before exceeding capacity")
	}
	b.Append(row) // grows past capacity
	if b.pooled {
		t.Error("grown batch still pooled — oversized array would enter the pool")
	}
	if b.Len() != DefaultBatchSize+1 {
		t.Errorf("grown batch len %d, want %d", b.Len(), DefaultBatchSize+1)
	}
	b.Release() // must be a no-op now
	// Pool round-trips must keep handing out DefaultBatchSize arrays.
	for i := 0; i < 8; i++ {
		nb := NewBatch()
		if cap(nb.rows) != DefaultBatchSize {
			t.Fatalf("pool handed out a batch with cap %d, want %d", cap(nb.rows), DefaultBatchSize)
		}
		nb.Release()
	}
}

// TestColBatchGrowthUnpools is the columnar twin of the test above: a
// pooled columnar batch whose vectors grow past DefaultBatchSize rows
// must leave the pool, both on the row-at-a-time and the bulk transpose
// path, or the pool accumulates ever-larger vector storage (columnar
// pool poisoning).
func TestColBatchGrowthUnpools(t *testing.T) {
	row := tuple.Tuple{value.NewInt(7), value.NewString("x")}

	b := NewColBatch(2)
	if !b.pooled {
		t.Fatal("NewColBatch returned an un-pooled batch")
	}
	for i := 0; i < DefaultBatchSize; i++ {
		b.AppendColRow(row)
	}
	if !b.pooled {
		t.Fatal("columnar batch un-pooled before exceeding capacity")
	}
	b.AppendColRow(row) // grows the vectors past capacity
	if b.pooled {
		t.Error("grown columnar batch still pooled — oversized vectors would enter the pool")
	}
	if b.Len() != DefaultBatchSize+1 {
		t.Errorf("grown columnar batch len %d, want %d", b.Len(), DefaultBatchSize+1)
	}
	b.Release() // must be a no-op on the un-pooled batch

	// Bulk path: one oversized transpose un-pools up front.
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
	l := nullableRows(200, 2, 30, 0)
	r := nullableRows(150, 5, 30, 10000)
	got := HashJoinRows(l, r, 0, 0)
	want := NestedLoopJoin(l, r, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("HashJoinRows with null keys: %d rows, oracle %d", len(got), len(want))
	}
	for _, row := range got {
		if row[0].IsNull() || row[2].IsNull() {
			t.Fatalf("HashJoinRows joined on a NULL key: %v", row)
		}
	}
	// All-null sides join to nothing.
	allNull := nullableRows(50, 1, 30, 0)
	if out := HashJoinRows(allNull, allNull, 0, 0); len(out) != 0 {
		t.Errorf("all-null join produced %d rows, want 0", len(out))
	}
}

func TestAppendConcatCarvesOwnedRows(t *testing.T) {
	b := NewBatch()
	if b.OwnsRows() {
		t.Fatal("fresh batch claims to own rows")
	}
	x := tuple.Tuple{value.NewInt(1), value.NewString("a")}
	y := tuple.Tuple{value.NewInt(2)}
	b.AppendConcat(x, y)
	b.AppendConcat(y, x)
	if !b.OwnsRows() {
		t.Fatal("AppendConcat did not mark the batch as owning its rows")
	}
	rows := b.Rows()
	if len(rows) != 2 || len(rows[0]) != 3 || len(rows[1]) != 3 {
		t.Fatalf("carved rows malformed: %v", rows)
	}
	want := tuple.Concat(x, y)
	for c := range want {
		if value.Compare(rows[0][c], want[c]) != 0 {
			t.Fatalf("carved row differs from Concat at column %d", c)
		}
	}
	// Carved rows are capacity-clipped: appending reallocates rather
	// than clobbering the neighbour row.
	_ = append(rows[0], value.NewInt(99))
	if rows[1][0].Int64() != 2 {
		t.Fatalf("append to carved row corrupted its neighbour: %v", rows[1])
	}
	b.Release()
}

func TestOutputBatchArenaRecycles(t *testing.T) {
	// An owned batch released and reacquired must produce correct fresh
	// rows from its recycled arena.
	row := tuple.Tuple{value.NewInt(7)}
	for i := 0; i < 3; i++ {
		b := NewBatch()
		for k := 0; k < DefaultBatchSize; k++ {
			b.AppendConcat(row, row)
		}
		for k, r := range b.Rows() {
			if len(r) != 2 || r[0].Int64() != 7 || r[1].Int64() != 7 {
				t.Fatalf("round %d row %d corrupted: %v", i, k, r)
			}
		}
		b.Release()
	}
}

func TestCollectCopiesOwnedRows(t *testing.T) {
	// Rows Collect returns from a join must stay valid after the join's
	// batches are released and their arenas recycled by other operators.
	l := genLineitem(4000, 28)
	r := genOrders(2000, 29)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Churn the batch pool so recycled join arenas get overwritten.
	junk := tuple.Tuple{value.NewInt(-777), value.NewInt(-777), value.NewInt(-777), value.NewInt(-777), value.NewInt(-777), value.NewInt(-777)}
	for i := 0; i < 64; i++ {
		b := NewBatch()
		for k := 0; k < DefaultBatchSize; k++ {
			b.AppendConcat(junk, junk)
		}
		b.Release()
	}
	for i, row := range got {
		for _, v := range row {
			if v.K == value.Int && v.Int64() == -777 {
				t.Fatalf("collected row %d was clobbered by arena reuse: %v", i, row)
			}
		}
	}
	want := HashJoinRows(l, r, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("join returned %d rows, want %d", len(got), len(want))
	}
}

func TestWhereOverJoinOutputKeepsRowsValid(t *testing.T) {
	// Where repacks join-output batches; the repacked rows must survive
	// the source batch's release (filterOp carves copies).
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
	want := 0
	for _, row := range HashJoinRows(l, r, 0, 0) {
		if row[2].Int64() < 1200 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Where over join kept %d rows, want %d", len(got), want)
	}
	for _, row := range got {
		if row[2].Int64() >= 1200 {
			t.Fatalf("non-matching row survived: %v", row)
		}
	}
}

func TestJoinOverJoinBuildSideOwnedRows(t *testing.T) {
	// Regression: a join whose BUILD side is another join receives
	// owned-row batches; the build must copy those rows before releasing
	// the batch, or recycled arenas corrupt the hash table.
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
	want := HashJoinRows(HashJoinRows(a, b, 0, 0), c, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("join-over-join returned %d rows, oracle %d", len(got), len(want))
	}
	SortRows(got)
	SortRows(want)
	for i := range got {
		for col := range got[i] {
			if value.Compare(got[i][col], want[i][col]) != 0 {
				t.Fatalf("row %d differs from oracle — owned build rows corrupted", i)
			}
		}
	}
}
