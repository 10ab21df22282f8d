package exec

import (
	"context"
	"errors"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/hyperjoin"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// drainBatches drains op through an Instrument wrapper and returns its
// rows, the length of every batch it delivered, and its OpStats.
func drainBatches(t *testing.T, op Operator) ([]tuple.Tuple, []int, OpStats) {
	t.Helper()
	ins := Instrument("join", op, nil)
	var rows []tuple.Tuple
	var lens []int
	if _, err := Drain(nil, ins, func(b *Batch) error {
		lens = append(lens, b.Len())
		rows = append(rows, b.Rows()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows, lens, ins.Stats()
}

// checkFullBatches asserts that every batch but at most partial of them
// holds exactly DefaultBatchSize rows, and that the instrumented batch
// count stays within ⌈rows/DefaultBatchSize⌉ + partial.
func checkFullBatches(t *testing.T, lens []int, st OpStats, partial int) {
	t.Helper()
	short := 0
	for _, n := range lens {
		if n != DefaultBatchSize {
			short++
		}
	}
	if short > partial {
		t.Errorf("%d of %d batches are not full (mean %.1f rows), want at most %d",
			short, len(lens), float64(st.Rows)/float64(max(len(lens), 1)), partial)
	}
	bound := (st.Rows+DefaultBatchSize-1)/DefaultBatchSize + int64(partial)
	if st.Batches != int64(len(lens)) || st.Batches > bound {
		t.Errorf("OpStats.Batches = %d (%d delivered), want ≤ %d", st.Batches, len(lens), bound)
	}
}

// checkResultRows asserts the join metered exactly want result rows.
func checkResultRows(t *testing.T, m *cluster.Meter, want int) {
	t.Helper()
	if got := m.Snapshot().ResultRows; got != want {
		t.Errorf("Counters.ResultRows = %d, want %d", got, want)
	}
}

// TestJoinOutputBatchesAreFull: a probe worker fills one output batch
// across probe batches, hyper-join groups and second-pass frames, so a
// join delivers full DefaultBatchSize-row batches except for at most one
// remainder per probe worker — exactly the oracle's rows, metered once
// each in Counters.ResultRows (pinned), since rows are counted where a
// batch is sent.
func TestJoinOutputBatchesAreFull(t *testing.T) {
	t.Run("shuffle", func(t *testing.T) {
		// Probe batches are 200-row scan views of lineitem's blocks.
		f := newFixture(t, true)
		f.ex.Workers = 3
		op := f.ex.JoinOp(f.ex.TableScanOp(f.ord, nil), 0, f.ex.TableScanOp(f.line, nil), 0, JoinOptions{BuildIsRight: true})
		rows, lens, st := drainBatches(t, op)
		rowsEqualSorted(t, rows, NestedLoopJoin(f.lrows, f.orows, 0, 0))
		checkFullBatches(t, lens, st, f.ex.workers())
		checkResultRows(t, f.meter, 6000)
	})
	t.Run("hyper", func(t *testing.T) {
		f := newFixture(t, true)
		f.ex.Workers = 2
		op := f.ex.NewHyperJoinOp(PlanHyper(f.line.Refs(0, nil), 0, f.ord.Refs(0, nil), 0, 4), nil, nil, false)
		rows, lens, st := drainBatches(t, op)
		rowsEqualSorted(t, rows, NestedLoopJoin(f.lrows, f.orows, 0, 0))
		if hs := op.Stats(); hs.Groups <= f.ex.Workers {
			t.Fatalf("%d groups on %d workers: no worker's output spans groups", hs.Groups, f.ex.Workers)
		}
		checkFullBatches(t, lens, st, f.ex.workers())
		checkResultRows(t, f.meter, 6000)
	})
	t.Run("spill", func(t *testing.T) {
		m := &cluster.Meter{}
		ex := New(dfs.NewStore(2, 1, 1), m)
		ex.Workers = 2
		l, r := genOrders(3000, 73), genLineitem(8000, 74)
		ex.Mem = NewMemBudget(rowsBytes(l) / 3)
		ex.SpillDir = t.TempDir()
		rows, lens, st := drainBatches(t, ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
		rowsEqualSorted(t, rows, NestedLoopJoin(l, r, 0, 0))
		if st.SpilledBytes == 0 {
			t.Fatal("nothing spilled: the second pass never ran")
		}
		// One remainder per first-pass probe worker and one per
		// second-pass worker.
		checkFullBatches(t, lens, st, 2*ex.workers())
		checkResultRows(t, m, 48000)
		if used := ex.Mem.Used(); used != 0 {
			t.Errorf("budget leak: %d bytes charged after the drain", used)
		}
	})
}

// closedEmpty asserts that a closed operator's output channel is closed
// with nothing left in it: no batch is delivered after Close.
func closedEmpty(t *testing.T, out chan *Batch) {
	t.Helper()
	if b, ok := <-out; ok {
		b.Release()
		t.Error("a batch was delivered after Close")
	}
}

// TestJoinPendingBatchOnCloseCancelAndFailure: a probe worker's pending
// output batch never outlives the stream — Close after the first batch
// and cancellation mid-drain release it and leave no goroutine or budget
// byte behind, and a hyper-join group that fails after earlier groups
// left rows pending still fails the drain.
func TestJoinPendingBatchOnCloseCancelAndFailure(t *testing.T) {
	t.Run("close-shuffle", func(t *testing.T) {
		ex, _, _, dir := cancelExec(t, 1<<30)
		ex.Workers = 3
		op := ex.JoinOp(NewSource(genOrders(2000, 75)), 0, NewSource(genLineitem(6000, 76)), 0, JoinOptions{})
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		b, err := op.Next()
		if err != nil || b == nil {
			t.Fatalf("first batch: %v, %v", b, err)
		}
		b.Release()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		closedEmpty(t, op.(*hashJoinOp).p.out)
		assertTornDown(t, ex, dir)
	})
	t.Run("close-hyper", func(t *testing.T) {
		f := newFixture(t, true)
		f.ex.Workers = 2
		op := f.ex.NewHyperJoinOp(PlanHyper(f.line.Refs(0, nil), 0, f.ord.Refs(0, nil), 0, 4), nil, nil, false)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		b, err := op.Next()
		if err != nil || b == nil {
			t.Fatalf("first batch: %v, %v", b, err)
		}
		b.Release()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		closedEmpty(t, op.p.out)
		VerifyNoLeaks(t)
	})
	t.Run("cancel-shuffle", func(t *testing.T) {
		ex, ctx, cancel, dir := cancelExec(t, 1<<30)
		op := ex.JoinOp(NewSource(genOrders(2000, 77)), 0, NewSource(genLineitem(6000, 78)), 0, JoinOptions{})
		_, err := Drain(ctx, op, func(*Batch) error { cancel(); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-drain cancel error = %v, want context.Canceled", err)
		}
		closedEmpty(t, op.(*hashJoinOp).p.out)
		assertTornDown(t, ex, dir)
	})
	t.Run("cancel-spill", func(t *testing.T) {
		ex, ctx, cancel, dir := cancelExec(t, 4096)
		op := ex.JoinOp(NewSource(genOrders(3000, 79)), 0, NewSource(genLineitem(8000, 80)), 0, JoinOptions{})
		_, err := Drain(ctx, op, func(*Batch) error { cancel(); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-drain cancel error = %v, want context.Canceled", err)
		}
		closedEmpty(t, op.(*hashJoinOp).p.out)
		assertTornDown(t, ex, dir)
	})
	t.Run("cancel-hyper", func(t *testing.T) {
		f := newFixture(t, true)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		op := f.ex.ForQuery(QueryCtx{Ctx: ctx}).NewHyperJoinOp(PlanHyper(f.line.Refs(0, nil), 0, f.ord.Refs(0, nil), 0, 4), nil, nil, false)
		_, err := Drain(ctx, op, func(*Batch) error { cancel(); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-drain cancel error = %v, want context.Canceled", err)
		}
		closedEmpty(t, op.p.out)
		VerifyNoLeaks(t)
	})
	t.Run("missing-block-in-later-group", func(t *testing.T) {
		f := newFixture(t, true)
		f.ex.Workers = 1 // groups run in order, so earlier groups' rows are pending
		rRefs, sRefs := f.line.Refs(0, nil), f.ord.Refs(0, nil)
		plan := PlanHyper(rRefs, 0, sRefs, 0, 4)
		groups := plan.Grouping
		if len(groups) < 2 {
			t.Fatalf("%d groups, want several", len(groups))
		}
		// An S block only the last group probes.
		earlier := hyperjoin.Union(plan.V, groups[0])
		for _, g := range groups[1 : len(groups)-1] {
			earlier.OrInto(hyperjoin.Union(plan.V, g))
		}
		victim := -1
		for _, s := range hyperjoin.Union(plan.V, groups[len(groups)-1]).Ones() {
			if s < len(sRefs) && !earlier.Get(s) {
				victim = s
				break
			}
		}
		if victim < 0 {
			t.Fatal("every S block of the last group is probed earlier")
		}
		f.store.Delete(sRefs[victim].Path)
		n, err := Count(f.ex.NewHyperJoinOp(PlanHyper(rRefs, 0, sRefs, 0, 4), nil, nil, false))
		if !errors.Is(err, ErrBlockMissing) {
			t.Fatalf("drain with a later group's S block deleted: %d rows, err %v; want ErrBlockMissing", n, err)
		}
		if n%DefaultBatchSize != 0 {
			t.Errorf("%d rows delivered before the failure: a pending remainder was sent", n)
		}
		VerifyNoLeaks(t)
	})
}

// TestJoinOutputCoalescesStorageKinds: one probe worker gathers a single
// output column from probe batches stored differently — typed,
// NULL-bearing, boxed mixed-kind and all-NULL — in either order, and the
// coalesced batch equals the oracle cell for cell, kinds included.
func TestJoinOutputCoalescesStorageKinds(t *testing.T) {
	const n = 100
	probe := func(cell func(i int) value.Value) []tuple.Tuple {
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{value.NewInt(int64(i % 40)), cell(i)}
		}
		return rows
	}
	typed := probe(func(i int) value.Value { return value.NewInt(int64(i)) })
	nulls := probe(func(i int) value.Value {
		if i%3 == 0 {
			return value.Value{}
		}
		return value.NewInt(int64(-i))
	})
	mixed := probe(func(i int) value.Value {
		switch i % 4 {
		case 0:
			return value.NewString("s")
		case 1:
			return value.NewFloat(float64(i) / 2)
		case 2:
			return value.Value{}
		}
		return value.NewInt(int64(i))
	})
	allNull := probe(func(int) value.Value { return value.Value{} })
	build := keyedRows(60, func(i int) int64 { return int64(i % 30) })
	for _, tc := range []struct {
		name  string
		parts [][]tuple.Tuple
	}{
		{"typed-first", [][]tuple.Tuple{typed, nulls, mixed, allNull}},
		{"all-null-first", [][]tuple.Tuple{allNull, mixed, nulls, typed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := New(dfs.NewStore(1, 1, 1), &cluster.Meter{})
			ex.Workers = 1
			srcs := make([]Operator, len(tc.parts))
			var all []tuple.Tuple
			for i, p := range tc.parts {
				srcs[i] = NewSource(p)
				all = append(all, p...)
			}
			rows, lens, _ := drainBatches(t, ex.JoinOp(NewSource(build), 0, Concat(srcs...), 0, JoinOptions{}))
			want := NestedLoopJoin(build, all, 0, 0)
			if len(lens) != 1 {
				t.Fatalf("%d output batches %v, want the %d rows coalesced into one", len(lens), lens, len(want))
			}
			if len(rows) != len(want) {
				t.Fatalf("%d rows, want %d", len(rows), len(want))
			}
			SortRows(rows)
			SortRows(want)
			for i := range rows {
				for c := range rows[i] {
					if g, w := rows[i][c], want[i][c]; g.K != w.K || value.Compare(g, w) != 0 {
						t.Fatalf("row %d col %d = %v, want %v", i, c, g, w)
					}
				}
			}
		})
	}
}
