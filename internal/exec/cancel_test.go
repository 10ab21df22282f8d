// The cancellation/leak test wall: cancel a query at every phase a
// join can be in — mid-build, mid-probe, mid-spill, mid-second-pass,
// mid-scan, mid-exchange, mid-hyper-join — and assert the invariants
// the serving layer depends on: the error surfaces as ctx.Err(), the
// memory budget returns to zero, the spill directory is empty, and no
// operator goroutine outlives Close (VerifyNoLeaks).
package exec

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
)

// cancelSource wraps a Source and pulls the trigger after emitting
// `after` batches — cancellation lands while the consumer is mid-way
// through this input.
type cancelSource struct {
	*Source
	cancel  context.CancelFunc
	after   int
	emitted int
}

func (c *cancelSource) Next() (*Batch, error) {
	b, err := c.Source.Next()
	if b != nil {
		c.emitted++
		if c.emitted == c.after {
			c.cancel()
		}
	}
	return b, err
}

// cancelExec builds a budgeted executor bound to a fresh cancellable
// context, with a temp spill dir to assert emptiness on.
func cancelExec(t *testing.T, budget int64) (*Executor, context.Context, context.CancelFunc, string) {
	t.Helper()
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(budget)
	dir := t.TempDir()
	ex.SpillDir = dir
	ctx, cancel := context.WithCancel(context.Background())
	ex.BindContext(ctx)
	return ex, ctx, cancel, dir
}

// assertTornDown checks the post-cancel invariants: budget at zero,
// spill dir empty, no leaked goroutines.
func assertTornDown(t *testing.T, ex *Executor, spillDir string) {
	t.Helper()
	if used := ex.Mem.Used(); used != 0 {
		t.Errorf("budget leak: %d bytes charged after cancelled query closed", used)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatalf("spill dir: %v", err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not empty after cancel: %d entries", len(ents))
	}
	VerifyNoLeaks(t)
}

// drainCancelling pulls op to exhaustion, cancelling after `after`
// output batches, and returns the terminal error.
func drainCancelling(op Operator, cancel context.CancelFunc, after int) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		n++
		if n == after {
			cancel()
		}
		b.Release()
	}
}

// TestCancelBeforeExecution: an already-cancelled context fails the
// join on Open/first-Next without running any work.
func TestCancelBeforeExecution(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 1<<20)
	cancel()
	l, r := genOrders(500, 51), genLineitem(700, 52)
	_, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex, dir)
}

// TestCancelMidBuild: the build-side source cancels after its second
// of 40 batches; the feeder checks ctx before every build.Next, so it
// stops pulling the input instead of reading it to the end, and the
// join winds down through the failure path.
func TestCancelMidBuild(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 1<<30)
	l, r := genOrders(40000, 53), genLineitem(100, 54)
	build := &cancelSource{Source: NewSource(l), cancel: cancel, after: 2}
	_, err := Collect(ex.JoinOp(build, 0, NewSource(r), 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel error = %v, want context.Canceled", err)
	}
	if max := build.after + ex.workers(); build.emitted > max {
		t.Errorf("cancelled build read %d batches, want <= %d", build.emitted, max)
	}
	assertTornDown(t, ex, dir)
}

// TestCancelMidProbe: the build completes; the probe-side source
// cancels mid-stream and the probe workers stop at a batch boundary.
func TestCancelMidProbe(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 1<<30)
	l, r := genOrders(500, 55), genLineitem(5000, 56)
	probe := &cancelSource{Source: NewSource(r), cancel: cancel, after: 2}
	_, err := Collect(ex.JoinOp(NewSource(l), 0, probe, 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-probe cancel error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex, dir)
}

// TestCancelMidSpill: a starved budget forces every partition to
// demote to run files; cancellation lands while the build is actively
// spilling, and Close must still delete every run.
func TestCancelMidSpill(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 512)
	l, r := genOrders(4000, 57), genLineitem(1000, 58)
	build := &cancelSource{Source: NewSource(l), cancel: cancel, after: 4}
	_, err := Collect(ex.JoinOp(build, 0, NewSource(r), 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-spill cancel error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex, dir)
}

// TestCancelMidSecondPass: with the budget starved, the join's output
// comes from the disk-resident second pass. Cancelling after the first
// output batch hits the per-partition ctx checks in secondPass /
// joinSpilled with most of the work still pending.
func TestCancelMidSecondPass(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 512)
	l, r := genOrders(3000, 59), genLineitem(4000, 60)
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{})
	err := drainCancelling(op, cancel, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-second-pass cancel error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex, dir)
}

// TestCancelMidScan: the scan workers check ctx per block; a
// pre-cancelled context errors the scan, and a mid-drain cancel stops
// a long scan.
func TestCancelMidScan(t *testing.T) {
	f := newFixture(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	f.ex.BindContext(ctx)
	cancel()
	_, err := Collect(f.ex.TableScanOp(f.line, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled scan error = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	f.ex.BindContext(ctx)
	err = drainCancelling(f.ex.TableScanOp(f.line, nil), cancel, 1)
	// A short scan may have finished filling its output buffer before
	// the cancel landed; either a clean EOS or ctx.Err() is acceptable,
	// anything else is not.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel error = %v, want nil or context.Canceled", err)
	}
	VerifyNoLeaks(t)
}

// TestCancelMidHyperJoin: the hyper-join's group workers check ctx per
// block pair; a pre-cancelled context surfaces through Next.
func TestCancelMidHyperJoin(t *testing.T) {
	f := newFixture(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	f.ex.BindContext(ctx)
	cancel()
	op := f.ex.NewHyperJoinOp(
		f.ex.TableRefs(f.ord, nil), nil, 0,
		f.ex.TableRefs(f.line, nil), nil, 0, 4, false)
	_, err := Collect(op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled hyper-join error = %v, want context.Canceled", err)
	}
	VerifyNoLeaks(t)
}

// TestCancelMidExchange: a distributed shuffle with a producer that
// cancels mid-stream — the exchange produce loops observe ctx, fail
// the exchange, and every consumer unblocks with an error rather than
// hanging.
func TestCancelMidExchange(t *testing.T) {
	const n = 4
	store := dfs.NewStore(n, 1, 1)
	ex := New(store, &cluster.Meter{})
	ns := ex.EnableNodes(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex.BindContext(ctx)

	// 12000 rows / 4 parts = 3 batches per producer: cancelling after
	// part 0's first batch leaves every producer with work in flight.
	rows := genOrders(12000, 61)
	parts := make([]Operator, n)
	for i := range parts {
		lo, hi := i*len(rows)/n, (i+1)*len(rows)/n
		src := NewSource(rows[lo:hi])
		if i == 0 {
			parts[i] = &cancelSource{Source: src, cancel: cancel, after: 1}
		} else {
			parts[i] = src
		}
	}
	x := ns.Shuffle(parts, 0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Collect(x.Output(i))
		}(i)
	}
	wg.Wait()
	sawCancel := false
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("output %d error = %v, want context.Canceled", i, err)
		}
		sawCancel = true
	}
	if !sawCancel {
		t.Fatal("no output observed the cancellation")
	}
	VerifyNoLeaks(t)
}

// TestCancelColumnarJoin: cancellation mid-build and mid-probe, with
// the cancelling source on either side of the join.
func TestCancelColumnarJoin(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 1<<30)
	l, r := genOrders(4000, 62), genLineitem(3000, 63)
	build := &cancelSource{Source: NewSource(l), cancel: cancel, after: 2}
	_, err := Collect(ex.JoinOp(build, 0, NewSource(r), 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("columnar mid-build cancel error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex, dir)

	ex2, _, cancel2, dir2 := cancelExec(t, 1<<30)
	probe := &cancelSource{Source: NewSource(r), cancel: cancel2, after: 2}
	_, err = Collect(ex2.JoinOp(NewSource(l), 0, probe, 0, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("columnar mid-probe cancel error = %v, want context.Canceled", err)
	}
	assertTornDown(t, ex2, dir2)
}

// TestCancelledJoinLeavesExecutorReusable: after a cancelled query,
// rebinding a live context runs the same shapes to completion — the
// serving pattern of a long-lived template surviving query failures.
func TestCancelledJoinLeavesExecutorReusable(t *testing.T) {
	ex, _, cancel, dir := cancelExec(t, 1<<20)
	l, r := genOrders(1500, 64), genLineitem(2000, 65)
	build := &cancelSource{Source: NewSource(l), cancel: cancel, after: 1}
	if _, err := Collect(ex.JoinOp(build, 0, NewSource(r), 0, JoinOptions{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join error = %v", err)
	}

	ex.BindContext(context.Background())
	got, err := Collect(ex.JoinOp(NewSource(l), 0, NewSource(r), 0, JoinOptions{}))
	if err != nil {
		t.Fatalf("join after cancel: %v", err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
	assertTornDown(t, ex, dir)
}

// TestVerifyNoLeaksCatchesLeak: the checker itself must flag a stuck
// module goroutine (and not flag it once released).
func TestVerifyNoLeaksCatchesLeak(t *testing.T) {
	block := make(chan struct{})
	done := make(chan struct{})
	go func() { // a leaked "operator" goroutine with a module frame
		leakyHelper(block)
		close(done)
	}()
	rec := &recordingT{}
	VerifyNoLeaks(rec)
	if !rec.failed {
		t.Error("leak checker missed a blocked module goroutine")
	}
	close(block)
	<-done
	VerifyNoLeaks(t) // and it settles once the goroutine exits
}

//go:noinline
func leakyHelper(ch chan struct{}) { <-ch }

type recordingT struct{ failed bool }

func (r *recordingT) Helper()               {}
func (r *recordingT) Errorf(string, ...any) { r.failed = true }
