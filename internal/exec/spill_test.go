package exec

import (
	"os"
	"path/filepath"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// rowsEqualSorted asserts two row multisets are identical.
func rowsEqualSorted(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	SortRows(got)
	SortRows(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity %d, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d col %d = %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// rowsBytes is the budget footprint of a row set — how tests size
// budgets as fractions of the build side.
func rowsBytes(rows []tuple.Tuple) int64 {
	n := int64(0)
	for _, r := range rows {
		n += int64(r.MemBytes())
	}
	return n
}

// runSpillJoin joins l ⋈ r with the given budget through the pipelined
// join, building on l.
func runSpillJoin(t *testing.T, l, r []tuple.Tuple, lCol, rCol int, budget int64) ([]tuple.Tuple, *Executor) {
	t.Helper()
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(budget)
	ex.SpillDir = t.TempDir()
	got, err := Collect(ex.JoinOp(NewSource(l), lCol, NewSource(r), rCol, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return got, ex
}

func TestSpillJoinMatchesOracleAcrossBudgets(t *testing.T) {
	l := genOrders(700, 31)
	r := genLineitem(900, 32)
	want := NestedLoopJoin(l, r, 0, 0)
	full := rowsBytes(l)
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"half-build", full / 2},
		{"eighth-build", full / 8},
		{"starved", 512}, // far below one partition: everything spills
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ex := runSpillJoin(t, l, r, 0, 0, tc.budget)
			rowsEqualSorted(t, got, want)
			if c := ex.Meter.Snapshot(); c.SpillRows == 0 {
				t.Errorf("budget %d spilled nothing — spill path not exercised", tc.budget)
			}
			if used := ex.Mem.Used(); used != 0 {
				t.Errorf("budget leak: %d bytes still charged after Close", used)
			}
		})
	}
}

func TestSpillJoinUnbudgetedSpillsNothing(t *testing.T) {
	l := genOrders(200, 33)
	r := genLineitem(300, 34)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	if c := ex.Meter.Snapshot(); c.SpillRows != 0 || c.SpillBytes != 0 {
		t.Errorf("unbudgeted join metered spill I/O: %+v", c)
	}
}

func TestSpillJoinAllDuplicateKeysChunkedFallback(t *testing.T) {
	// Every key identical: no hash bits can split the partition, so the
	// second pass must fall through recursion to the chunked build. The
	// result is the full cross product.
	const n = 120
	l := make([]tuple.Tuple, n)
	r := make([]tuple.Tuple, n)
	for i := range l {
		l[i] = tuple.Tuple{value.NewInt(7), value.NewInt(int64(i))}
		r[i] = tuple.Tuple{value.NewInt(7), value.NewInt(int64(1000 + i))}
	}
	got, ex := runSpillJoin(t, l, r, 0, 0, 256)
	if len(got) != n*n {
		t.Fatalf("%d rows, want full cross product %d", len(got), n*n)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	if c := ex.Meter.Snapshot(); c.SpillRows == 0 {
		t.Error("all-duplicate join under a starved budget spilled nothing")
	}
}

func TestSpillJoinStringAndNullKeys(t *testing.T) {
	// String keys exercise the variable-width side of the run-file
	// codec; NULL keys must vanish on both sides even when partitions
	// spill.
	var l, r []tuple.Tuple
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", ""}
	for i := 0; i < 400; i++ {
		k := value.NewString(names[i%len(names)])
		if i%7 == 0 {
			k = value.Value{} // NULL
		}
		l = append(l, tuple.Tuple{k, value.NewInt(int64(i))})
		r = append(r, tuple.Tuple{k, value.NewFloat(float64(i) / 3)})
	}
	got, _ := runSpillJoin(t, l, r, 0, 0, 300)
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

func TestSpillJoinBuildIsRightKeepsColumnOrder(t *testing.T) {
	l := genLineitem(300, 35)
	r := genOrders(250, 36)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(r) / 8)
	ex.SpillDir = t.TempDir()
	// Build on the right side but emit (left, right) order.
	got, err := Collect(ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

func TestSpillJoinReportsSpilledBytes(t *testing.T) {
	l := genOrders(600, 37)
	r := genLineitem(600, 38)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(l) / 8)
	ex.SpillDir = t.TempDir()
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	in := Instrument("join", op, nil)
	if _, err := Collect(in); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.SpilledBytes == 0 {
		t.Error("OpStats.SpilledBytes = 0 for a budget-starved join")
	}
	c := ex.Meter.Snapshot()
	if int64(c.SpillBytes) != st.SpilledBytes {
		t.Errorf("meter SpillBytes %v != OpStats.SpilledBytes %d", c.SpillBytes, st.SpilledBytes)
	}
}

func TestSpillJoinCleansUpRunFiles(t *testing.T) {
	l := genOrders(500, 39)
	r := genLineitem(500, 40)
	dir := t.TempDir()
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(l) / 8)
	ex.SpillDir = dir
	if _, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "adaptdb-join-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill dirs left behind after Close: %v", left)
	}
}

func TestSpillJoinEarlyCloseCleansUp(t *testing.T) {
	l := genOrders(800, 41)
	r := genLineitem(800, 42)
	dir := t.TempDir()
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(l) / 8)
	ex.SpillDir = dir
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "adaptdb-join-*"))
	if len(left) != 0 {
		t.Errorf("early close left spill dirs: %v", left)
	}
	if used := ex.Mem.Used(); used != 0 {
		t.Errorf("early close leaked %d budget bytes", used)
	}
}

// TestSpillProbeArenaRecyclingRegression is the PR-5 regression for the
// batch-arena ownership rule on the spill path: output batches of a
// budgeted join carve rows from recycled arenas (AppendConcat), and
// rows reloaded from run files in the second pass must never end up in
// a pooled array that recycles while a consumer still holds copies of
// earlier output. The test retains every output batch un-Released
// while the stream (first pass, then spilled second pass) keeps
// producing into pool-recycled arenas, snapshots the expected rows
// up front, and verifies nothing it holds was clobbered — run under
// -race in CI.
func TestSpillProbeArenaRecyclingRegression(t *testing.T) {
	l := genOrders(400, 43)
	r := genLineitem(600, 44)
	want := NestedLoopJoin(l, r, 0, 0)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(l) / 8)
	ex.SpillDir = t.TempDir()
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var held []*Batch
	var got []tuple.Tuple
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		// Deliberately retain the batch (and its arena) instead of
		// releasing: if any later spill/probe cycle recycled a held
		// arena back through the pool, these rows would be overwritten
		// by the time we compare.
		held = append(held, b)
		got = append(got, b.Rows()...)
	}
	rowsEqualSorted(t, got, want)
	for _, b := range held {
		b.Release()
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillJoinSurfacesDiskErrors(t *testing.T) {
	// A spill directory that cannot be created must fail the query
	// loudly (through Next's error path), not lose rows — and the
	// operator must still tear down cleanly.
	l := genOrders(600, 47)
	r := genLineitem(600, 48)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(512) // starved: first demotion hits the disk
	ex.SpillDir = filepath.Join(t.TempDir(), "does", "not", "exist")
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	_, err := Collect(op)
	if err == nil {
		t.Fatal("unreachable spill dir must fail the join")
	}
	if used := ex.Mem.Used(); used != 0 {
		t.Errorf("failed join leaked %d budget bytes", used)
	}
}

func TestMemBudgetBasics(t *testing.T) {
	if b := NewMemBudget(0); b != nil {
		t.Error("NewMemBudget(0) should be nil (unlimited)")
	}
	var nilB *MemBudget
	if nilB.Charge(100) || nilB.Over() || nilB.Limit() != 0 || nilB.Used() != 0 {
		t.Error("nil budget must be unlimited and inert")
	}
	nilB.Release(100) // must not panic
	b := NewMemBudget(100)
	if b.Charge(60) {
		t.Error("60/100 should not be over")
	}
	if !b.Charge(60) {
		t.Error("120/100 should be over")
	}
	if !b.Over() {
		t.Error("Over() should agree")
	}
	b.Release(60)
	if b.Over() || b.Used() != 60 {
		t.Errorf("after release: used=%d over=%v", b.Used(), b.Over())
	}
	shares := b.Split(4)
	if len(shares) != 4 {
		t.Fatalf("Split(4) gave %d", len(shares))
	}
	for _, s := range shares {
		if s.Limit() != 25 {
			t.Errorf("share limit %d, want 25", s.Limit())
		}
	}
	if ns := nilB.Split(3); len(ns) != 3 || ns[0] != nil {
		t.Error("nil budget must split into nil shares")
	}
}

func TestSpillDirDefaultsToOSTemp(t *testing.T) {
	// Smoke: no SpillDir configured still works (uses os.TempDir) and
	// cleans up after itself. TMPDIR points at a directory of this
	// test's own: the shared one holds other packages' live spill dirs
	// whenever packages run in parallel.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	l := genOrders(300, 45)
	r := genLineitem(300, 46)
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(l) / 4)
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	if op.(*hashJoinOp).SpilledBytes() == 0 {
		t.Fatal("the join never spilled: the default spill location went unexercised")
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("spill dirs leaked into os.TempDir: %d entries (%v)", len(ents), err)
	}
}
