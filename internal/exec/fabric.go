// The transport seam of the distributed compiler. A Fabric is what the
// planner's per-node lowering (planner/distributed.go) compiles
// against: per-node executor views, placement-aware scan splitting, and
// the four exchange shapes plus the coordinator-side gather. Two
// implementations exist — the in-process simulated fabric (a NodeSet
// wrapped by simFabric, exchanges moving batches through channels) and
// the TCP fabric of internal/net (node processes moving length-prefixed
// frames over real sockets). The compiler cannot tell them apart; that
// is the point: one compile path, two physical networks.
package exec

import (
	"fmt"

	"adaptdb/internal/core"
	"adaptdb/internal/predicate"
)

// Exchanger is a built exchange: Output(i) is the operator node i's
// consuming fragment drains. Implementations decide how rows travel
// from the producing fragments to output i — in-memory channels
// (*Exchange) or multiplexed TCP streams (internal/net).
type Exchanger interface {
	Output(i int) Operator
}

// Fabric abstracts the execution substrate the distributed compiler
// lowers onto. N is the number of plan fragments (one per cluster
// node); At/ScanAt/SplitRefs expose per-node executor views and
// placement; the exchange constructors mirror NodeSet's. Gather merges
// per-node fragment streams into the single coordinator stream that
// roots every distributed plan (or feeds a broadcast/deal of an
// intermediate).
//
// A Fabric implementation may live in one process (the simulated
// fabric) or span many (the TCP fabric): in the latter case each
// process compiles the identical plan against its own Fabric view and
// instantiates only the fragments it hosts; Output(i) for a fragment
// hosted elsewhere returns an operator that must never be opened.
type Fabric interface {
	N() int
	At(i int) *Executor
	ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate) Operator
	SplitRefs(refs []core.BlockRef) [][]core.BlockRef
	Shuffle(parts []Operator, key int) Exchanger
	ShuffleGlobal(in Operator, key int) Exchanger
	Broadcast(in Operator) Exchanger
	Deal(in Operator) Exchanger
	Gather(parts []Operator) Operator
}

// SetFabric overrides the executor's execution fabric for the next
// compiles — the hook the TCP coordinator and workers use to install a
// per-query network fabric. Pass nil to fall back to the simulated
// NodeSet fabric (when EnableNodes was called) or centralized
// compilation.
func (e *Executor) SetFabric(f Fabric) { e.xfabric = f }

// ExecFabric resolves the fabric the planner should compile against:
// the installed override, else the simulated NodeSet fabric, else nil
// (centralized compilation).
func (e *Executor) ExecFabric() Fabric {
	if e.xfabric != nil {
		return e.xfabric
	}
	if e.nodes != nil {
		return simFabric{e.nodes}
	}
	return nil
}

// simFabric adapts a NodeSet to the Fabric interface: the in-process
// simulated network of channel-backed exchanges.
type simFabric struct{ ns *NodeSet }

func (f simFabric) N() int             { return f.ns.N() }
func (f simFabric) At(i int) *Executor { return f.ns.At(i) }

func (f simFabric) ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate) Operator {
	return f.ns.ScanAt(i, refs, preds)
}

func (f simFabric) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	return f.ns.SplitRefs(refs)
}

func (f simFabric) Shuffle(parts []Operator, key int) Exchanger {
	return f.ns.Shuffle(parts, key)
}

func (f simFabric) ShuffleGlobal(in Operator, key int) Exchanger {
	return f.ns.ShuffleGlobal(in, key)
}

func (f simFabric) Broadcast(in Operator) Exchanger { return f.ns.Broadcast(in) }
func (f simFabric) Deal(in Operator) Exchanger      { return f.ns.Deal(in) }

func (f simFabric) Gather(parts []Operator) Operator { return Gather(parts...) }

// NotHere returns the placeholder operator a multi-process fabric hands
// out for fragments hosted in another process. Opening one is a plan
// wiring bug — a fragment was driven in a process that does not own it —
// and surfaces as an error rather than silently-empty results.
func NotHere(node int) Operator { return notHereOp{node: node} }

type notHereOp struct{ node int }

func (o notHereOp) Open() error {
	return fmt.Errorf("exec: fragment of node %d is not hosted in this process", o.node)
}
func (o notHereOp) Next() (*Batch, error) {
	return nil, fmt.Errorf("exec: fragment of node %d is not hosted in this process", o.node)
}
func (o notHereOp) Close() error { return nil }
