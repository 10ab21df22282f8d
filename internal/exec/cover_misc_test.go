package exec

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
)

// TestShuffleJoinIntermediates: the §4.3 intermediate-to-intermediate
// join matches the oracle and meters its rows as intermediates, not
// shuffles.
func TestShuffleJoinIntermediates(t *testing.T) {
	f := newFixture(t, true)
	l, r := genOrders(400, 71), genLineitem(600, 72)
	got, err := Collect(f.ex.JoinOp(NewSource(l), 0, NewSource(r), 0,
		JoinOptions{BuildCharge: ChargeIntermediate, ProbeCharge: ChargeIntermediate}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	c := f.meter.Snapshot()
	if c.IntermediateRows != float64(len(l)+len(r)) {
		t.Errorf("IntermediateRows = %v, want %d", c.IntermediateRows, len(l)+len(r))
	}
	if c.ShuffleRows != 0 {
		t.Errorf("intermediate join metered %v shuffle rows, want 0", c.ShuffleRows)
	}
}

// TestDealRoundRobin: Deal spreads a coordinator stream across every
// node without loss or duplication, batch by batch.
func TestDealRoundRobin(t *testing.T) {
	const n = 4
	ns, _ := nodeSetOf(t, n)
	rows := genOrders(8192, 73) // 8 batches over 4 nodes
	x := ns.Deal(NewSource(rows))
	got := drainOutputs(t, x, n)
	total := 0
	for node, rs := range got {
		if len(rs) == 0 {
			t.Errorf("node %d received nothing from an 8-batch deal", node)
		}
		total += len(rs)
	}
	if total != len(rows) {
		t.Fatalf("deal delivered %d rows, want %d", total, len(rows))
	}
}

// TestExchangeBudgetedBatches: with per-node budgets attached, a
// shuffle delivers every row and charges nothing — in-flight batches
// are bounded by the channels, not the budget — so the ledgers read
// zero once the exchange drains.
func TestExchangeBudgetedBatches(t *testing.T) {
	const n = 2
	store := dfs.NewStore(n, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(64 << 20)
	ns := ex.EnableNodes(1)

	rows := genOrders(6000, 74)
	parts := make([]Operator, n)
	for i := range parts {
		lo, hi := i*len(rows)/n, (i+1)*len(rows)/n
		parts[i] = NewSource(rows[lo:hi])
	}
	got := drainOutputs(t, ns.Shuffle(parts, 0), n)
	total := 0
	for _, rs := range got {
		total += len(rs)
	}
	if total != len(rows) {
		t.Fatalf("budgeted shuffle delivered %d rows, want %d", total, len(rows))
	}
	for i := 0; i < ns.N(); i++ {
		if used := ns.At(i).Mem.Used(); used != 0 {
			t.Errorf("node %d budget holds %d bytes after drain, want 0", i, used)
		}
	}
}

// TestAppendColRowFrom: single-row columnar appends mirror the source
// row exactly.
func TestAppendColRowFrom(t *testing.T) {
	rows := genOrders(8, 75)
	src := NewSource(rows)
	if err := src.Open(); err != nil {
		t.Fatal(err)
	}
	sb, err := src.Next()
	if err != nil || sb == nil {
		t.Fatalf("col source: %v %v", sb, err)
	}
	dst := NewColBatch(len(rows[0]))
	for i := 0; i < sb.Len(); i++ {
		dst.AppendColRowFrom(sb.Cols(), i)
	}
	if dst.Len() != len(rows) {
		t.Fatalf("dst has %d rows, want %d", dst.Len(), len(rows))
	}
	rowsEqualSorted(t, dst.Rows(), rows)
}
