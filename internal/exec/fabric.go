// The transport seam of the plan compiler. A Fabric is what the
// planner's lowering (planner/distributed.go) compiles against:
// per-node executor views, placement-aware scan splitting, the two
// exchange shapes, the in-place edge and the coordinator-side gather.
// Three implementations exist — the one-node fabric of a centralized
// executor (centralFabric: exchanges move nothing and charge each row
// its plan edge's eq. 1 class), the in-process simulated fabric (a NodeSet
// wrapped by simFabric, exchanges moving batches through channels) and
// the TCP fabric of internal/net (node processes moving length-prefixed
// frames over real sockets). The compiler cannot tell them apart; that
// is the point: one compile path, three physical networks.
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
//
// FilterProbe marks a hash exchange whose output i feeds the probe side
// of node i's hash join: producers wait for every join's build-key
// filter and drop the rows it rejects (Exchange.FilterProbe). The
// one-node fabric moves nothing and ignores it.
type Exchanger interface {
	Output(i int) Operator
	FilterProbe()
}

// Fabric abstracts the execution substrate the plan compiler lowers
// onto. N is the number of plan fragments (one per cluster node);
// At/ScanAt/SplitRefs expose per-node executor views and placement; the
// exchange constructors mirror NodeSet's: every exchange reads one
// fragment per node. InPlace is the edge of a join input that stays on
// the node that produced it. Gather merges per-node fragment streams
// into the one coordinator stream, the root of every plan.
//
// Each exchange constructor and InPlace take the Charge class of the
// plan edge they carry. The one-node fabric meters every row at that
// class; the simulated and TCP fabrics ignore it and meter the rows and
// bytes that cross nodes (cluster.Meter.AddExchangeAt), which an
// in-place edge never does. Pricing the N-node fabrics' exchanges by
// class is ROADMAP item 1.
//
// A Fabric implementation may live in one process (the simulated
// fabric) or span many (the TCP fabric): in the latter case each
// process compiles the identical plan against its own Fabric view and
// instantiates only the fragments it hosts; Output(i) for a fragment
// hosted elsewhere returns an operator that must never be opened.
type Fabric interface {
	N() int
	At(i int) *Executor
	ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate, cols []int) Operator
	SplitRefs(refs []core.BlockRef) [][]core.BlockRef
	Shuffle(parts []Operator, key int, c Charge) Exchanger
	Broadcast(parts []Operator, c Charge) Exchanger
	InPlace(in Operator, c Charge) Operator
	Gather(parts []Operator) Operator
}

// SetFabric overrides the executor's execution fabric for the next
// compiles — the hook the TCP coordinator and workers use to install a
// per-query network fabric. Pass nil to fall back to the simulated
// NodeSet fabric (when EnableNodes was called) or the one-node fabric.
func (e *Executor) SetFabric(f Fabric) { e.xfabric = f }

// ExecFabric resolves the fabric the planner should compile against:
// the installed override, else the simulated NodeSet fabric, else the
// one-node fabric of a centralized executor. Never nil.
func (e *Executor) ExecFabric() Fabric {
	if e.xfabric != nil {
		return e.xfabric
	}
	if e.nodes != nil {
		return simFabric{e.nodes}
	}
	return centralFabric{e}
}

// centralFabric is a centralized executor as a one-node fabric: the
// executor is node 0, scans are not split, and an exchange moves
// nothing — its one output is its input, metered at the plan edge's
// charge class (eq. 1's CSJ factor for a shuffled base table, §4.3's
// rate for an intermediate, nothing for a table read in place).
type centralFabric struct{ e *Executor }

func (f centralFabric) N() int           { return 1 }
func (f centralFabric) At(int) *Executor { return f.e }

func (f centralFabric) ScanAt(_ int, refs []core.BlockRef, preds []predicate.Predicate, cols []int) Operator {
	return f.e.ScanOp(refs, preds, cols)
}

func (f centralFabric) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	return [][]core.BlockRef{refs}
}

func (f centralFabric) Shuffle(parts []Operator, _ int, c Charge) Exchanger {
	return localExchange{f.InPlace(parts[0], c)}
}

func (f centralFabric) Broadcast(parts []Operator, c Charge) Exchanger {
	return localExchange{f.InPlace(parts[0], c)}
}

func (f centralFabric) InPlace(in Operator, c Charge) Operator { return chargeRows(in, f.e.Meter, c) }

func (f centralFabric) Gather(parts []Operator) Operator { return parts[0] }

// localExchange is the one-node fabric's exchange: Output(0) is the
// charged input.
type localExchange struct{ out Operator }

func (x localExchange) Output(int) Operator { return x.out }
func (x localExchange) FilterProbe()        {}

// simFabric adapts a NodeSet to the Fabric interface: the in-process
// simulated network of channel-backed exchanges.
type simFabric struct{ ns *NodeSet }

func (f simFabric) N() int             { return f.ns.N() }
func (f simFabric) At(i int) *Executor { return f.ns.At(i) }

func (f simFabric) ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate, cols []int) Operator {
	return f.ns.At(i).ScanOp(refs, preds, cols)
}

func (f simFabric) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	return f.ns.SplitRefs(refs)
}

func (f simFabric) Shuffle(parts []Operator, key int, _ Charge) Exchanger {
	return f.ns.Shuffle(parts, key)
}

func (f simFabric) Broadcast(parts []Operator, _ Charge) Exchanger { return f.ns.Broadcast(parts) }
func (f simFabric) InPlace(in Operator, _ Charge) Operator         { return in }

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
