// Per-query execution state over a shared long-lived executor. A
// serving process keeps ONE template Executor per store (flags, spill
// fs, store handle) and derives a private view per query: own meter,
// own memory-budget share, own spill directory, own context. The view
// shares the immutable parts (store, pruning/columnar flags, fault-
// injection fs) and owns everything a query mutates, so any number of
// queries run concurrently against one store without sharing operator
// state.
package exec

import (
	"context"

	"adaptdb/internal/cluster"
)

// QueryCtx is the per-query state a serving layer owns: the context
// that cancels the query's operators, the meter its costs accumulate
// into, its private memory-budget share, and its spill directory.
type QueryCtx struct {
	// Ctx cancels the query: operator drain loops check it at batch
	// boundaries and surface ctx.Err() through Next. nil means
	// non-cancellable (context.Background semantics).
	Ctx context.Context
	// Meter receives the query's cost accounting. nil allocates a
	// private meter.
	Meter *cluster.Meter
	// Mem is the query's memory-budget share (typically sized to the
	// admission reservation); nil means unlimited.
	Mem *MemBudget
	// SpillDir overrides the template's spill directory when non-empty.
	SpillDir string
	// Distributed attaches a per-node fabric (EnableNodes, one worker
	// per node) to the view.
	Distributed bool
}

// ForQuery derives a per-query executor view from a long-lived
// template. The view shares the store and behavior flags but owns its
// meter, budget, spill dir and context; when q.Distributed it also gets
// a private NodeSet (per-node executor views and meter shards), so two
// concurrent queries never share exchange or metering state.
//
// The returned executor is single-query: use it for one Compile/drain
// cycle, then drop it.
func (e *Executor) ForQuery(q QueryCtx) *Executor {
	meter := q.Meter
	if meter == nil {
		meter = &cluster.Meter{}
	}
	spill := e.SpillDir
	if q.SpillDir != "" {
		spill = q.SpillDir
	}
	v := &Executor{
		Store:    e.Store,
		Meter:    meter,
		Workers:  e.Workers,
		NoPrune:  e.NoPrune,
		Mem:      q.Mem,
		SpillDir: spill,
		fs:       e.fs,
		ctx:      q.Ctx,
	}
	if q.Distributed {
		v.EnableNodes(0)
	}
	return v
}

// ctxErr reports the executor's cancellation state: nil while the
// query may proceed, ctx.Err() once it is cancelled or past deadline.
// Hot loops call this once per batch, not per row.
func (e *Executor) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}
