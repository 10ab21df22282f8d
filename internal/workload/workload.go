// Package workload defines per-table query descriptors and the sliding
// query window AdaptDB keeps for repartitioning decisions ("AdaptDB
// keeps all queries in a recent query window", §5.2; Amoeba "maintains a
// query window denoted by W", §3.2).
//
// Windows are fed by the session lifecycle: every query a
// session.Session executes is recorded (via optimizer.OnQuery) into the
// window of each table it touches before the plan runs, so the n/|W|
// fractions that drive smooth repartitioning and the predicate-column
// counts that drive Amoeba adaptation always reflect the live stream,
// query by query.
package workload

import (
	"adaptdb/internal/predicate"
)

// Query describes how one query touches one table: the selection
// predicates it pushes down and the join attribute it uses on this table
// (-1 when the table is not joined).
type Query struct {
	Preds    []predicate.Predicate
	JoinAttr int
}

// Window is a bounded FIFO of the most recent queries against one table.
type Window struct {
	cap int
	qs  []Query
}

// NewWindow creates a window of the given capacity (the paper defaults
// to 10; Fig. 15 sweeps 5 and 35).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{cap: capacity}
}

// Cap returns |W|.
func (w *Window) Cap() int { return w.cap }

// Len returns the number of queries currently held.
func (w *Window) Len() int { return len(w.qs) }

// Add appends a query, evicting the oldest when full.
func (w *Window) Add(q Query) {
	w.qs = append(w.qs, q)
	if len(w.qs) > w.cap {
		w.qs = w.qs[1:]
	}
}

// Queries returns the window contents, oldest first (shared slice; do
// not mutate).
func (w *Window) Queries() []Query { return w.qs }

// CountJoinAttr returns n = |{q ∈ W ∧ q's join attribute = t}| from the
// Fig. 11 algorithm.
func (w *Window) CountJoinAttr(attr int) int {
	n := 0
	for _, q := range w.qs {
		if q.JoinAttr == attr {
			n++
		}
	}
	return n
}

// PredColumns returns the distinct predicate columns observed, with
// counts — the hints Amoeba's repartitioner uses (§3.2).
func (w *Window) PredColumns() map[int]int {
	out := make(map[int]int)
	for _, q := range w.qs {
		seen := make(map[int]bool)
		for _, p := range q.Preds {
			if !seen[p.Col] {
				seen[p.Col] = true
				out[p.Col]++
			}
		}
	}
	return out
}
