// Operator-level memory accounting: the MemBudget that operator state
// charges against. AdaptDB's hyper-join already bounds its build side
// by grouping splits under a per-node budget (§4.1); MemBudget extends
// that discipline to every operator whose state grows with its input —
// hash-join build tables, spill second-pass loads, group-by tables — so
// a hash join whose build side outgrows its share demotes partitions to
// disk (spill.go) instead of OOMing the process. Flow is not charged:
// batches in flight through an exchange are bounded by its channel
// capacity (exchange.go), as the TCP fabric's are by its credit window.
package exec

import "sync/atomic"

// MemBudget tracks bytes of operator state against a fixed limit. All
// methods are safe for concurrent use, and all are nil-safe: a nil
// *MemBudget is the unlimited budget, so call sites charge
// unconditionally and pay one branch when no budget is configured.
//
// Charging is advisory, not blocking: Charge always succeeds and
// reports whether the budget is now exceeded. The caller decides how to
// get back under — the hash join demotes a build partition to disk,
// group-by merely accounts (it has no spill path).
// This mirrors how a real per-operator memory manager grants
// reservations optimistically and triggers spilling on pressure rather
// than deadlocking producers.
type MemBudget struct {
	limit int64
	used  atomic.Int64
}

// NewMemBudget builds a budget of limit bytes. Non-positive limits
// return nil — the unlimited budget.
func NewMemBudget(limit int64) *MemBudget {
	if limit <= 0 {
		return nil
	}
	return &MemBudget{limit: limit}
}

// Limit returns the budget's byte limit, or 0 for the unlimited (nil)
// budget.
func (m *MemBudget) Limit() int64 {
	if m == nil {
		return 0
	}
	return m.limit
}

// Used returns the bytes currently charged.
func (m *MemBudget) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// Charge records n more bytes of operator state and reports whether the
// budget is now over its limit — the caller's cue to spill. Nil budgets
// never report pressure.
func (m *MemBudget) Charge(n int64) bool {
	if m == nil {
		return false
	}
	return m.used.Add(n) > m.limit
}

// Release returns n bytes to the budget.
func (m *MemBudget) Release(n int64) {
	if m == nil {
		return
	}
	m.used.Add(-n)
}

// Over reports whether charged bytes currently exceed the limit.
func (m *MemBudget) Over() bool {
	if m == nil {
		return false
	}
	return m.used.Load() > m.limit
}

// Split divides the budget into n equal per-node shares — how
// EnableNodes hands each node executor its slice of the cluster's
// memory, matching the paper's per-node grouping budget. A nil budget
// splits into n nil (unlimited) budgets.
func (m *MemBudget) Split(n int) []*MemBudget {
	if n < 1 {
		n = 1
	}
	out := make([]*MemBudget, n)
	if m == nil {
		return out
	}
	share := m.limit / int64(n)
	if share < 1 {
		share = 1
	}
	for i := range out {
		out[i] = NewMemBudget(share)
	}
	return out
}
