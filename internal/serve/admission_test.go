package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptdb/internal/exec"
)

// waitReserved polls until the controller's reservation ledger reads
// want or the deadline passes.
func waitReserved(t *testing.T, a *Admission, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.mem.Used() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("reserved = %d, want %d", a.mem.Used(), want)
}

// waitQueueDepth polls until the waiter queue reaches depth n.
func waitQueueDepth(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.Stats().Waiting == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth = %d, want %d", a.Stats().Waiting, n)
}

// TestAdmissionStarvedBudgetQueues is the over-admission guard: with
// the budget saturated, a second query must wait — the ledger never
// exceeds capacity — and must be admitted promptly once the holder
// releases.
func TestAdmissionStarvedBudgetQueues(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	if err := a.Acquire(context.Background(), 80); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- a.Acquire(context.Background(), 50) }()

	waitQueueDepth(t, a, 1)
	if got := a.mem.Used(); got != 80 {
		t.Fatalf("budget over-admitted: reserved %d with capacity 100 and 80 held", got)
	}
	select {
	case err := <-admitted:
		t.Fatalf("second acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	a.Release(80)
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("acquire after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by release")
	}
	if got := a.mem.Used(); got != 50 {
		t.Fatalf("reserved after handoff = %d, want 50", got)
	}
	st := a.Stats()
	if st.Admitted != 2 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want Admitted 2 Queued 1", st)
	}
	a.Release(50)
	waitReserved(t, a, 0)
}

// TestAdmissionFIFOWakeOrder: releases admit waiters strictly in
// arrival order. Sized so each release can admit exactly one waiter,
// making the grant order observable without racing on goroutine
// scheduling: any non-FIFO policy (LIFO, best-fit) would wake a
// different waiter.
func TestAdmissionFIFOWakeOrder(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	wake := make(chan int, 3)
	enqueue := func(id int, bytes int64) {
		go func() {
			if err := a.Acquire(context.Background(), bytes); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			wake <- id
		}()
		waitQueueDepth(t, a, id)
	}
	enqueue(1, 60)
	enqueue(2, 60)
	enqueue(3, 60)

	a.Release(100)
	for want := 1; want <= 3; want++ {
		select {
		case id := <-wake:
			if id != want {
				t.Fatalf("wake %d = waiter %d, want waiter %d (strict FIFO)", want, id, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d not woken", want)
		}
		// Only one 60-byte waiter fits at a time; the next is queued
		// until this one releases.
		if st := a.Stats(); st.Waiting != 3-want {
			t.Fatalf("queue depth after wake %d = %d, want %d", want, st.Waiting, 3-want)
		}
		a.Release(60)
	}
	waitReserved(t, a, 0)
}

// TestAdmissionHeadBlocksSmallerWaiter: strict FIFO means a too-big
// head is never skipped — a later waiter that would fit right now
// still waits behind it (the price of starvation-freedom for large
// queries).
func TestAdmissionHeadBlocksSmallerWaiter(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	if err := a.Acquire(context.Background(), 50); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	wake := make(chan int, 2)
	enqueue := func(id int, bytes int64, depth int) {
		go func() {
			if err := a.Acquire(context.Background(), bytes); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			wake <- id
		}()
		waitQueueDepth(t, a, depth)
	}
	// Head wants 90 (doesn't fit beside 50); waiter 2 wants 10 and
	// would fit immediately — FIFO must hold it behind the head.
	enqueue(1, 90, 1)
	enqueue(2, 10, 2)
	select {
	case id := <-wake:
		t.Fatalf("waiter %d admitted past a blocked head", id)
	case <-time.After(30 * time.Millisecond):
	}
	if got := a.mem.Used(); got != 50 {
		t.Fatalf("reserved = %d, want 50 (nothing admitted)", got)
	}

	a.Release(50)
	// Now the head fits (90), and behind it waiter 2 (90+10 = 100).
	// Both are granted; grant order is FIFO by construction, collect
	// both wakes without asserting goroutine scheduling order.
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case id := <-wake:
			got[id] = true
		case <-time.After(2 * time.Second):
			t.Fatal("waiters not woken after release")
		}
	}
	if !got[1] || !got[2] {
		t.Fatalf("woken set = %v, want both waiters", got)
	}
	a.Release(90)
	a.Release(10)
	waitReserved(t, a, 0)
}

// TestAdmissionDeadlineExpiredWaiter: a waiter whose context deadlines
// while queued gets ctx.Err() back and the budget ledger is untouched
// — the reservation it never received is not leaked.
func TestAdmissionDeadlineExpiredWaiter(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := a.Acquire(ctx, 40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter error = %v, want DeadlineExceeded", err)
	}
	if got := a.mem.Used(); got != 100 {
		t.Fatalf("reserved after expiry = %d, want 100 (budget untouched)", got)
	}
	st := a.Stats()
	if st.Expired != 1 || st.Waiting != 0 {
		t.Fatalf("stats = %+v, want Expired 1 Waiting 0", st)
	}
	// The service must be fully healthy afterwards.
	a.Release(100)
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("acquire after expiry cycle: %v", err)
	}
	a.Release(100)
	waitReserved(t, a, 0)
}

// TestAdmissionExpiredHeadUnblocksQueue: removing an expired too-big
// head must re-run the wake scan so a smaller successor that now fits
// is admitted — otherwise the queue deadlocks until the next release.
func TestAdmissionExpiredHeadUnblocksQueue(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	if err := a.Acquire(context.Background(), 60); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	// Head wants 90 (doesn't fit beside 60); successor wants 30 (fits
	// right now but FIFO holds it behind the head).
	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() { headErr <- a.Acquire(ctx, 90) }()
	waitQueueDepth(t, a, 1)
	okErr := make(chan error, 1)
	go func() { okErr <- a.Acquire(context.Background(), 30) }()
	waitQueueDepth(t, a, 2)

	cancel()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head error = %v, want Canceled", err)
	}
	select {
	case err := <-okErr:
		if err != nil {
			t.Fatalf("successor acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("successor not admitted after too-big head expired")
	}
	if got := a.mem.Used(); got != 90 {
		t.Fatalf("reserved = %d, want 90 (60 held + 30 admitted)", got)
	}
	a.Release(60)
	a.Release(30)
	waitReserved(t, a, 0)
}

// TestAdmissionShed: a footprint beyond total capacity is rejected
// with the typed ErrShed, immediately and without touching the budget.
func TestAdmissionShed(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 0)
	err := a.Acquire(context.Background(), 101)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("oversized acquire error = %v, want ErrShed", err)
	}
	if got := a.mem.Used(); got != 0 {
		t.Fatalf("reserved after shed = %d, want 0", got)
	}
	if st := a.Stats(); st.Shed != 1 || st.Admitted != 0 {
		t.Fatalf("stats = %+v, want Shed 1 Admitted 0", st)
	}
	// Exactly at capacity is admitted, not shed.
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("at-capacity acquire: %v", err)
	}
	a.Release(100)
}

// TestAdmissionQueueFull: beyond MaxQueued, acquires surface the typed
// ErrQueueFull instead of waiting.
func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(100), 1)
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan error, 1)
	go func() { waiting <- a.Acquire(ctx, 10) }()
	waitQueueDepth(t, a, 1)

	err := a.Acquire(context.Background(), 10)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue acquire error = %v, want ErrQueueFull", err)
	}
	if st := a.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Rejected 1", st)
	}
	cancel()
	<-waiting
	a.Release(100)
	waitReserved(t, a, 0)
}

// TestAdmissionNilBudget: an unlimited service admits everything
// without queueing.
func TestAdmissionNilBudget(t *testing.T) {
	a := NewAdmission(nil, 0)
	for i := 0; i < 8; i++ {
		if err := a.Acquire(context.Background(), 1<<40); err != nil {
			t.Fatalf("unlimited acquire %d: %v", i, err)
		}
	}
	if st := a.Stats(); st.Admitted != 8 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want Admitted 8 Queued 0", st)
	}
	a.Release(1 << 40) // no-op, must not panic
}

// TestAdmissionConcurrentChurn hammers the controller from many
// goroutines and checks the ledger invariant (never over capacity,
// zero at rest) plus full accounting. Run with -race.
func TestAdmissionConcurrentChurn(t *testing.T) {
	const (
		capacity = 1000
		workers  = 16
		rounds   = 50
	)
	a := NewAdmission(exec.NewMemBudget(capacity), 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				bytes := int64(100 + (w*rounds+i)%300)
				if err := a.Acquire(context.Background(), bytes); err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				if got := a.mem.Used(); got > capacity {
					t.Errorf("ledger over capacity: %d > %d", got, capacity)
				}
				a.Release(bytes)
			}
		}(w)
	}
	wg.Wait()
	if got := a.mem.Used(); got != 0 {
		t.Fatalf("reserved at rest = %d, want 0", got)
	}
	if st := a.Stats(); st.Admitted != workers*rounds {
		t.Fatalf("admitted = %d, want %d", st.Admitted, workers*rounds)
	}
}

// TestAdmissionStatsString is a tiny smoke for the snapshot fields.
func TestAdmissionStatsSnapshot(t *testing.T) {
	a := NewAdmission(exec.NewMemBudget(256), 4)
	if err := a.Acquire(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Capacity != 256 || st.Reserved != 200 {
		t.Fatalf("snapshot = %+v, want Capacity 256 Reserved 200", st)
	}
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("unprintable stats")
	}
	a.Release(200)
}
