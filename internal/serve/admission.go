// Admission control: one global exec.MemBudget shared by every
// in-flight query. A query reserves its planner-estimated footprint
// before it runs; when the reservation doesn't fit, the query queues
// (strict FIFO — a release wakes waiters in arrival order and never
// skips a too-big head, so large queries cannot starve) or is shed
// outright when it could never fit. The reservation comes back on
// Release, waking whoever fits next.
//
// The controller is the budget's only writer: queries run against
// their own per-query MemBudget sized to the reservation, so the
// global ledger tracks reservations, not live operator bytes, and
// check-then-charge under the controller's mutex is race-free.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptdb/internal/exec"
)

// ErrShed marks a query rejected because its footprint exceeds the
// service's total memory capacity — no amount of queueing would admit
// it. errors.Is(err, ErrShed) identifies the path.
var ErrShed = fmt.Errorf("serve: query footprint exceeds memory capacity")

// ErrQueueFull marks a query rejected because the admission queue is
// at its bound.
var ErrQueueFull = fmt.Errorf("serve: admission queue full")

// Admission serializes entry to the shared memory budget.
type Admission struct {
	mem      *exec.MemBudget // nil = unlimited: every Acquire passes
	maxQueue int             // 0 = unbounded queue

	mu      sync.Mutex
	waiters []*waiter // FIFO; head admitted first

	admitted atomic.Int64 // queries granted (with or without waiting)
	queued   atomic.Int64 // queries that had to wait before admission
	shed     atomic.Int64 // ErrShed rejections
	rejected atomic.Int64 // ErrQueueFull rejections
	expired  atomic.Int64 // waiters cancelled by their context
}

type waiter struct {
	bytes    int64
	ready    chan struct{}
	admitted bool // guarded by Admission.mu
}

// NewAdmission builds a controller over the service's global budget.
// A nil budget (unlimited memory) admits everything immediately.
func NewAdmission(mem *exec.MemBudget, maxQueue int) *Admission {
	return &Admission{mem: mem, maxQueue: maxQueue}
}

// AdmissionStats is a snapshot of the controller's lifetime counters.
type AdmissionStats struct {
	Admitted, Queued, Shed, Rejected, Expired int64
	// Reserved/Capacity mirror the budget ledger at snapshot time.
	Reserved, Capacity int64
	// Waiting is the current queue depth.
	Waiting int
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	s := AdmissionStats{
		Admitted: a.admitted.Load(),
		Queued:   a.queued.Load(),
		Shed:     a.shed.Load(),
		Rejected: a.rejected.Load(),
		Expired:  a.expired.Load(),
		Reserved: a.mem.Used(),
		Capacity: a.mem.Limit(),
	}
	a.mu.Lock()
	s.Waiting = len(a.waiters)
	a.mu.Unlock()
	return s
}

// Acquire reserves bytes from the shared budget, blocking in FIFO
// order behind earlier waiters when the reservation doesn't fit.
// Returns ErrShed (wrapped) when bytes exceeds total capacity,
// ErrQueueFull (wrapped) when the queue is at its bound, or ctx.Err()
// when the context ends first — in every error case the budget is
// untouched. A nil ctx means wait forever.
func (a *Admission) Acquire(ctx context.Context, bytes int64) error {
	if a.mem == nil {
		a.admitted.Add(1)
		return nil
	}
	if bytes < 0 {
		bytes = 0
	}
	limit := a.mem.Limit()
	if bytes > limit {
		a.shed.Add(1)
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrShed, bytes, limit)
	}
	a.mu.Lock()
	// Fast path: nothing queued ahead and the reservation fits. The
	// queue-empty condition preserves FIFO — a newcomer never jumps a
	// waiter, even one it would fit beside.
	if len(a.waiters) == 0 && a.mem.Used()+bytes <= limit {
		a.mem.Charge(bytes)
		a.mu.Unlock()
		a.admitted.Add(1)
		return nil
	}
	if a.maxQueue > 0 && len(a.waiters) >= a.maxQueue {
		a.mu.Unlock()
		a.rejected.Add(1)
		return fmt.Errorf("%w: %d queries waiting", ErrQueueFull, a.maxQueue)
	}
	w := &waiter{bytes: bytes, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	a.queued.Add(1)

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
		a.admitted.Add(1)
		return nil
	case <-done:
		a.mu.Lock()
		if w.admitted {
			// A release admitted us in the same instant the context
			// expired. Hand the grant straight back and wake the next
			// fit, leaving the budget exactly as if we never arrived.
			a.mem.Release(bytes)
			a.wakeLocked()
			a.mu.Unlock()
			a.expired.Add(1)
			return ctx.Err()
		}
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				break
			}
		}
		// Removing a waiter can unblock the queue: if we were the
		// too-big head, a smaller successor may fit right now.
		a.wakeLocked()
		a.mu.Unlock()
		a.expired.Add(1)
		return ctx.Err()
	}
}

// Release returns a reservation to the budget and wakes queued
// waiters, in order, as long as they fit.
func (a *Admission) Release(bytes int64) {
	if a.mem == nil {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	a.mu.Lock()
	a.mem.Release(bytes)
	a.wakeLocked()
	a.mu.Unlock()
}

// wakeLocked admits waiters from the head while they fit. Strict FIFO:
// a head that doesn't fit blocks everyone behind it — the price of
// starvation-freedom for large queries.
func (a *Admission) wakeLocked() {
	limit := a.mem.Limit()
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.mem.Used()+w.bytes > limit {
			return
		}
		a.waiters = a.waiters[1:]
		a.mem.Charge(w.bytes)
		w.admitted = true
		close(w.ready)
	}
}
