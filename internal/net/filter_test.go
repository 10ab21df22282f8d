package net

import (
	"context"
	"errors"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// filteredJoinEnd compiles proc me's half of a two-fragment shuffle
// join whose probe exchange is filtered, fragment i hosted by proc i:
// build and probe feed the hosted fragment's producers, and the hosted
// fragment's join is returned.
func filteredJoinEnd(t *testing.T, ep *endpoint, qid uint64, me int, build, probe exec.Operator, mem int64) (*netFabric, *exec.Executor, exec.Operator) {
	t.Helper()
	f, ex := shuffleEnd(t, ep, qid, mem)
	bparts := []exec.Operator{exec.NotHere(0), exec.NotHere(1)}
	pparts := []exec.Operator{exec.NotHere(0), exec.NotHere(1)}
	bparts[me], pparts[me] = build, probe
	bx := f.Shuffle(bparts, 0, exec.ChargeShuffle)
	px := f.Shuffle(pparts, 0, exec.ChargeShuffle)
	px.FilterProbe()
	return f, ex, f.At(me).JoinOp(bx.Output(me), 0, px.Output(me), 0, exec.JoinOptions{})
}

func intRows(keys ...int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = tuple.Tuple{value.NewInt(k), value.NewString("row")}
	}
	return out
}

func keyRange(lo, hi int64) []int64 {
	var ks []int64
	for k := lo; k < hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// collectAsync drains op on its own goroutine.
func collectAsync(op exec.Operator) chan collected {
	ch := make(chan collected, 1)
	go func() {
		rows, err := exec.Collect(op)
		ch <- collected{rows, err}
	}()
	return ch
}

type collected struct {
	rows []tuple.Tuple
	err  error
}

// gatesFull waits until every producer stream of the attempt has its
// whole credit window back.
func gatesFull(t *testing.T, at *attempt) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		full := true
		at.mu.Lock()
		for _, g := range at.gates {
			g.mu.Lock()
			full = full && g.avail == g.max
			g.mu.Unlock()
		}
		at.mu.Unlock()
		if full {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a stream's credit never came back")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPFilteredShuffle runs a filtered shuffle join across a socket
// pair: the answer matches the oracle, the probe producer drops the
// rows the remote join's filter rejects and meters them, the filter
// frame counts as link bytes and as no exchange row, and every credit
// comes back.
func TestTCPFilteredShuffle(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	epA, epB, closePair := pairEndpoints(t, 0)
	defer closePair()
	const qid = 21
	build := intRows(keyRange(0, 1000)...)
	probe := intRows(keyRange(0, 10_000)...)
	// Proc A hosts fragment 0 with no input rows: its only traffic toward
	// fragment 1 is its join's filter frame.
	fA, exA, joinA := filteredJoinEnd(t, epA, qid, 0, exec.NewSource(nil), exec.NewSource(nil), 0)
	fB, exB, joinB := filteredJoinEnd(t, epB, qid, 1, exec.NewSource(build), exec.NewSource(probe), 0)
	fA.Run(context.Background())
	fB.Run(context.Background())
	a, b := collectAsync(joinA), collectAsync(joinB)
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("joins: %v, %v", ra.err, rb.err)
	}
	if got, want := len(ra.rows)+len(rb.rows), len(exec.NestedLoopJoin(build, probe, 0, 0)); got != want {
		t.Fatalf("%d join rows, oracle %d", got, want)
	}
	for _, f := range []*netFabric{fA, fB} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	gatesFull(t, fA.at)
	gatesFull(t, fB.at)
	exA.Nodes().Flush()
	exB.Nodes().Flush()
	cb := exB.Meter.Snapshot()
	if cb.ExchFilteredRows < 8000 {
		t.Fatalf("the probe producer dropped %.0f rows; most of its 9,000 misses should go", cb.ExchFilteredRows)
	}
	if moved := cb.ExchLocalRows + cb.ExchRemoteRows + cb.ExchFilteredRows; moved != float64(len(build)+len(probe)) {
		t.Fatalf("moved + dropped %.0f rows, want %d", moved, len(build)+len(probe))
	}
	if ca := exA.Meter.Snapshot(); ca.ExchLocalRows+ca.ExchRemoteRows != 0 {
		t.Fatalf("proc A moved %.0f exchange rows; its filter frame is no exchange row", ca.ExchLocalRows+ca.ExchRemoteRows)
	}
	if l := exA.Meter.Links()[cluster.LinkKey{Src: 0, Dst: 1}]; l.Bytes <= 0 || l.Rows != 0 {
		t.Fatalf("link 0→1 carried %+v; want the filter frame's bytes and no rows", l)
	}
	epA.retire(qid, nil)
	epB.retire(qid, nil)
}

// failOp is an input that fails on its first Next.
type failOp struct{ err error }

func (f failOp) Open() error                { return nil }
func (f failOp) Next() (*exec.Batch, error) { return nil, f.err }
func (f failOp) Close() error               { return nil }

// endlessOp replays rows forever: a build input that never ends.
type endlessOp struct {
	rows []tuple.Tuple
	src  exec.Operator
}

func (e *endlessOp) Open() error { return nil }

func (e *endlessOp) Next() (*exec.Batch, error) {
	for {
		if e.src == nil {
			e.src = exec.NewSource(e.rows)
			if err := e.src.Open(); err != nil {
				return nil, err
			}
		}
		b, err := e.src.Next()
		if b != nil || err != nil {
			return b, err
		}
		e.src.Close()
		e.src = nil
	}
}

func (e *endlessOp) Close() error {
	if e.src != nil {
		return e.src.Close()
	}
	return nil
}

// TestTCPFilterLeakWall: a filtered shuffle over TCP whose joins do not
// all publish a build filter — cancelled mid-build, a build failing
// with ErrBlockMissing, a join closed before its probe opens — releases
// every pump waiting on filters; errors stay typed, the budget returns
// to zero, every wire buffer returns to the pool and no goroutine
// survives.
func TestTCPFilterLeakWall(t *testing.T) {
	probe := intRows(keyRange(0, 4000)...)
	finish := func(t *testing.T, closePair func(), exs ...*exec.Executor) {
		t.Helper()
		for _, ex := range exs {
			for i := 0; i < 2; i++ {
				if used := ex.Nodes().At(i).Mem.Used(); used != 0 {
					t.Errorf("%d budget bytes still charged at fragment %d", used, i)
				}
			}
		}
		closePair()
		exec.VerifyNoLeaks(t)
		if out := frameBufsOut.Load(); out != 0 {
			t.Errorf("%d pooled wire buffers still checked out", out)
		}
	}
	waitErr := func(t *testing.T, ch chan collected) error {
		t.Helper()
		select {
		case r := <-ch:
			return r.err
		case <-time.After(5 * time.Second):
			t.Fatal("a join did not unblock")
			return nil
		}
	}

	t.Run("cancel-mid-build", func(t *testing.T) {
		exec.VerifyNoLeaks(t)
		epA, epB, closePair := pairEndpoints(t, 0)
		const qid = 31
		// Proc A's build input never ends, so both joins are still
		// building, and both probe pumps waiting, when the query is
		// cancelled.
		fA, exA, joinA := filteredJoinEnd(t, epA, qid, 0, &endlessOp{rows: intRows(keyRange(0, 500)...)}, exec.NewSource(probe), 1<<30)
		fB, exB, joinB := filteredJoinEnd(t, epB, qid, 1, exec.NewSource(nil), exec.NewSource(probe), 1<<30)
		fA.Run(context.Background())
		fB.Run(context.Background())
		a, b := collectAsync(joinA), collectAsync(joinB)
		for exB.Nodes().At(1).Mem.Used() == 0 {
			time.Sleep(time.Millisecond) // join B has taken remote build rows
		}
		cancel := &NetError{Msg: "query canceled"}
		epA.retire(qid, cancel)
		epB.retire(qid, cancel)
		for _, ch := range []chan collected{a, b} {
			if err := waitErr(t, ch); !IsNetError(err) {
				t.Fatalf("a cancelled join returned %v, want the cancellation NetError", err)
			}
		}
		for _, f := range []*netFabric{fA, fB} {
			if err := f.Wait(); !IsNetError(err) {
				t.Fatalf("a pump returned %v, want the cancellation NetError", err)
			}
		}
		finish(t, closePair, exA, exB)
	})

	t.Run("block-missing", func(t *testing.T) {
		exec.VerifyNoLeaks(t)
		epA, epB, closePair := pairEndpoints(t, 0)
		const qid = 32
		fA, exA, joinA := filteredJoinEnd(t, epA, qid, 0, exec.NewSource(intRows(keyRange(0, 500)...)), exec.NewSource(probe), 1<<30)
		fB, exB, joinB := filteredJoinEnd(t, epB, qid, 1, failOp{exec.ErrBlockMissing}, exec.NewSource(probe), 1<<30)
		fA.Run(context.Background())
		fB.Run(context.Background())
		a, b := collectAsync(joinA), collectAsync(joinB)
		// B's build producer fails the attempt in its process; the
		// coordinator then aborts it everywhere.
		if err := waitErr(t, b); !errors.Is(err, exec.ErrBlockMissing) {
			t.Fatalf("join B returned %v, want ErrBlockMissing", err)
		}
		abort := &NetError{Msg: "attempt aborted"}
		epA.retire(qid, abort)
		epB.retire(qid, abort)
		if err := waitErr(t, a); err != nil && !IsNetError(err) {
			t.Fatalf("join A returned %v, want success or the abort NetError", err)
		}
		if err := fB.Wait(); !errors.Is(err, exec.ErrBlockMissing) {
			t.Fatalf("proc B's pumps returned %v, want ErrBlockMissing", err)
		}
		if err := fA.Wait(); err != nil && !IsNetError(err) {
			t.Fatalf("proc A's pumps returned %v, want success or the abort NetError", err)
		}
		finish(t, closePair, exA, exB)
	})

	t.Run("close-before-probe", func(t *testing.T) {
		exec.VerifyNoLeaks(t)
		epA, epB, closePair := pairEndpoints(t, 0)
		const qid = 33
		var at0 []int64 // build keys routed to fragment 0
		for k := int64(0); len(at0) < 300; k++ {
			if value.NewInt(k).Hash64()%2 == 0 {
				at0 = append(at0, k)
			}
		}
		build := intRows(at0...)
		fA, exA, joinA := filteredJoinEnd(t, epA, qid, 0, exec.NewSource(build), exec.NewSource(probe), 1<<30)
		fB, exB, joinB := filteredJoinEnd(t, epB, qid, 1, exec.NewSource(nil), exec.NewSource(probe), 1<<30)
		fA.Run(context.Background())
		fB.Run(context.Background())
		a := collectAsync(joinA)
		// Join B closes without opening: its pass-all filter releases
		// proc A's probe pump, whose rows for fragment 1 are dropped.
		if err := joinB.Close(); err != nil {
			t.Fatal(err)
		}
		r := <-a
		if r.err != nil {
			t.Fatal(r.err)
		}
		// Both procs' probe inputs hold every key; all the build keys
		// live at fragment 0.
		if want := len(exec.NestedLoopJoin(build, append(probe, probe...), 0, 0)); len(r.rows) != want {
			t.Fatalf("join A produced %d rows, oracle %d", len(r.rows), want)
		}
		for _, f := range []*netFabric{fA, fB} {
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		gatesFull(t, fA.at)
		gatesFull(t, fB.at)
		epA.retire(qid, nil)
		epB.retire(qid, nil)
		finish(t, closePair, exA, exB)
	})
}
