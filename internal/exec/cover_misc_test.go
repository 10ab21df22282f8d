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
	got, err := Collect(f.ex.JoinOp(charged(f.ex, NewSource(l), 0, ChargeIntermediate), 0,
		charged(f.ex, NewSource(r), 0, ChargeIntermediate), 0, JoinOptions{}))
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
