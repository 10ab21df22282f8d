// Exchange operators: the simulated network between node executors.
//
// An Exchange takes one plan-fragment stream per producing node and
// re-partitions its rows across the consuming nodes — by join-key hash
// (Shuffle) or by duplication (Broadcast). Every input runs on a node:
// no exchange reads a coordinator stream, so the only operator the
// coordinator hosts is the root's Gather. Rows delivered to the node
// that produced them are free; rows delivered anywhere else are charged
// to the producing node's meter as remote exchange rows with their
// approximate wire bytes (cluster.Meter.AddExchangeAt): what the cost
// model prices is exactly what physically crossed between nodes. (The
// one-node fabric of a centralized executor moves nothing and charges
// each row its plan edge's eq. 1 class instead — fabric.go.)
//
// Filtered shuffles: the hash exchange feeding a shuffle join's probe
// side (FilterProbe) routes nothing until every destination's join has
// sealed its build and published a KeyFilter over the build's key
// hashes (bloom.go), or a pass-all on a path that ends without one.
// From then on the route drops each row whose key is NULL or is
// rejected by its destination's filter: the row is never gathered,
// sent, probed or metered as moved, only counted as
// Counters.ExchFilteredRows.
//
// Each input fragment is drained by one Producer (producer.go), the
// routing loop the TCP fabric's pumps run too; an Exchange supplies its
// channels as the transport.
//
// Batch ownership across an exchange: a batch never crosses the wire —
// only rows do. Rows bound for another node are gathered into fresh
// columnar batches, one pending batch per destination node, copying
// vectors (string payloads are shared, immutable headers). The rows a
// hash route keeps on the producing node are not copied: the input
// batch's selection is narrowed to them (Batch.KeepRows) and the batch
// itself is handed on — it may be a scan's view of a block. Ownership
// of a handed-off batch passes to the destination node's consumer at
// channel handoff, and the consumer Releases it.
//
// Exchanges charge no MemBudget: the batches in flight are bounded by
// construction, not by accounting. Each destination channel queues at
// most exchQueue batches, and each producer holds at most one pending
// batch per destination (the one it is filling, or the one blocked in
// delivery), so a destination never has more than exchQueue + producers
// batches in flight. That is the simulated counterpart of the TCP
// fabric's per-stream credit window, which bounds the same bytes and
// charges nothing either. The budget is for operator state that grows
// with the input; charging flow too would only make spill volume
// depend on producer timing.
package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"adaptdb/internal/value"
)

// Exchange moves rows between node executors. Build one with
// NodeSet.Shuffle or NodeSet.Broadcast, then hand Output(i) to node i's
// consuming fragment. Opening any output starts the producers (one
// goroutine per input fragment, each owning its fragment's full
// Open/Next/Close lifecycle); every output must be opened and drained
// — or closed — for the exchange to finish.
type Exchange struct {
	ns     *NodeSet
	inputs []Operator // inputs[i] runs on node i
	route  int        // the hash column of a shuffle, or RouteBroadcast
	outs   []*exchOut
	// filters is set by FilterProbe: the exchange feeds one hash join's
	// probe side per output, and producers route only once every
	// output's join has published its filter.
	filters *KeyFilters

	start   sync.Once
	started atomic.Bool  // producers are (about to be) running
	closed  atomic.Int64 // outputs closed early; producers bail when all are
	// prods runs the producers and records the first producer error,
	// set before the channels close; its own stream is unused.
	prods pool
}

// Shuffle builds a hash exchange over per-node fragments: parts[i] runs
// on node i, and each of its rows is routed to node Hash64(row[key]) %
// N — deterministic, value.Hash64-consistent routing, so equal keys
// always meet at the same node. NULL keys route to node 0; they can
// never match anything (joins skip them), so their destination only
// needs to be deterministic.
func (ns *NodeSet) Shuffle(parts []Operator, key int) *Exchange {
	return ns.exchange(parts, key)
}

// Broadcast duplicates every node's fragment to every node exactly once
// — the one-side exchange of a semi-shuffle join: the small (build)
// side's rows cross the network N−1 ways (the copy for its own node
// stays local) while the big side never moves.
func (ns *NodeSet) Broadcast(parts []Operator) *Exchange {
	return ns.exchange(parts, RouteBroadcast)
}

// exchQueue is the per-destination channel capacity in batches: the
// queued half of an exchange's in-flight bound.
const exchQueue = 4

func (ns *NodeSet) exchange(inputs []Operator, route int) *Exchange {
	x := &Exchange{ns: ns, inputs: inputs, route: route}
	for i := 0; i < ns.N(); i++ {
		x.outs = append(x.outs, &exchOut{x: x, node: i, ch: make(chan *Batch, exchQueue), closed: make(chan struct{})})
	}
	return x
}

// Output returns the operator node i's fragment consumes: the stream of
// batches whose rows were routed to node i.
func (x *Exchange) Output(i int) Operator { return x.outs[i] }

// FilterProbe makes a hash exchange the probe input of one hash join
// per output. Its producers wait until every output has published a
// filter (FilterSink) — the join's build-key filter, or a pass-all
// from a join that failed or closed — and then drop the rows that
// cannot match. Call it before any output opens.
func (x *Exchange) FilterProbe() {
	if x.route >= 0 {
		x.filters = NewKeyFilters(len(x.outs))
	}
}

// FilterSink is implemented by the exchange outputs of every N-node
// fabric. A hash join whose probe input is a FilterSink publishes its
// build-key filter to it once the build seals, and nil (pass every
// row) on any path that ends without one, so no producer waits
// forever.
type FilterSink interface {
	// Filtered reports whether the exchange's producers wait for this
	// output's filter (Exchanger.FilterProbe).
	Filtered() bool
	// PublishFilter hands the output's filter to the producers. Only
	// the first publish counts.
	PublishFilter(f *KeyFilter)
}

// KeyFilters is the meeting point of a filtered exchange: one slot per
// destination, each published once, and a channel that closes when all
// are. The TCP fabric keeps one per filtered exchange in every process
// hosting one of its producers.
type KeyFilters struct {
	mu    sync.Mutex
	fs    []*KeyFilter
	set   []bool
	left  int
	ready chan struct{}
}

// NewKeyFilters returns the meeting point for n destinations.
func NewKeyFilters(n int) *KeyFilters {
	return &KeyFilters{fs: make([]*KeyFilter, n), set: make([]bool, n), left: n, ready: make(chan struct{})}
}

// Publish records destination d's filter; a second publish for d, or
// one for a destination out of range, is ignored.
func (s *KeyFilters) Publish(d int, f *KeyFilter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d < 0 || d >= len(s.set) || s.set[d] {
		return
	}
	s.fs[d], s.set[d] = f, true
	if s.left--; s.left == 0 {
		close(s.ready)
	}
}

// Ready closes once every destination has published.
func (s *KeyFilters) Ready() <-chan struct{} { return s.ready }

// All returns the filters by destination. Call it only after Ready has
// closed; the slice is shared and read-only.
func (s *KeyFilters) All() []*KeyFilter { return s.fs }

// run starts one producer per input fragment and a closer that
// releases what closed outputs were still sent and seals the output
// channels once every producer is done.
func (x *Exchange) run() {
	x.started.Store(true)
	go func() {
		x.prods.run(len(x.inputs), x.produce)
		for _, o := range x.outs {
			select {
			case <-o.closed:
				o.drain()
			default:
			}
		}
		for _, o := range x.outs {
			close(o.ch)
		}
	}()
}

// produce runs the producer of input fragment i.
func (x *Exchange) produce(i int) {
	p := &Producer{In: x.inputs[i], Src: i, N: len(x.outs), Route: x.route,
		Meter: x.ns.shards[i], Stop: x.stop, Deliver: x.deliver}
	if x.filters != nil {
		p.Filters = x.awaitFilters
	}
	if err := p.Run(); err != nil && !errors.Is(err, errOutputsClosed) {
		x.prods.fail(err)
	}
}

// errOutputsClosed stops the producers of an exchange whose consumers
// are all gone; it is no failure.
var errOutputsClosed = errors.New("exec: every exchange output is closed")

// stop is the simulated fabric's per-batch check: every consumer gone,
// or the query cancelled.
func (x *Exchange) stop() error {
	if int(x.closed.Load()) == len(x.outs) {
		return errOutputsClosed
	}
	return x.ns.parent.ctxErr()
}

// awaitFilters returns the destinations' filters of a filtered exchange
// once every destination has published, or the query's cancellation.
func (x *Exchange) awaitFilters() ([]*KeyFilter, error) {
	var done <-chan struct{}
	if ctx := x.ns.parent.ctx; ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-x.filters.Ready():
		return x.filters.All(), nil
	case <-done:
		return nil, x.ns.parent.ctxErr()
	}
}

// deliver hands b to destination d's channel, or releases it once d's
// consumer is gone: its share of the stream is dropped.
func (x *Exchange) deliver(d int, b *Batch) error {
	o := x.outs[d]
	select {
	case o.ch <- b:
	case <-o.closed:
		b.Release()
	}
	return nil
}

// BatchWireBytes approximates a batch's serialized size: a fixed 16-byte
// value header per cell plus string payloads, summed column-at-a-time
// (null cells count the header only) — cheap, stable across runs, and
// close enough for a simulated network's byte counters. The producer
// meters with it on both N-node fabrics, so their exchange counters
// price identically for the same row flow.
func BatchWireBytes(b *Batch) int {
	c := b.Cols()
	ln := c.Len()
	ncols := c.NumCols()
	total := ln * 16 * ncols
	sel := c.Sel()
	for ci := 0; ci < ncols; ci++ {
		v := c.Col(ci)
		switch {
		case v.Boxed() != nil:
			bx := v.Boxed()
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				if bx[i].K == value.String {
					total += len(bx[i].S)
				}
			}
		case v.Kind() == value.String:
			strs := v.Strs()
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				total += len(strs[i])
			}
		}
	}
	return total
}

// exchOut is one destination node's view of an exchange.
type exchOut struct {
	x      *Exchange
	node   int
	ch     chan *Batch
	closed chan struct{}
	once   sync.Once
}

func (o *exchOut) Open() error {
	o.x.start.Do(o.x.run)
	return nil
}

func (o *exchOut) Next() (*Batch, error) {
	b, ok := <-o.ch
	if !ok {
		// Channels close only after every producer exits, so the first
		// error (if any) is set by now.
		return nil, o.x.prods.firstErr()
	}
	return b, nil
}

func (o *exchOut) Filtered() bool { return o.x.filters != nil }

func (o *exchOut) PublishFilter(f *KeyFilter) {
	if o.x.filters != nil {
		o.x.filters.Publish(o.node, f)
	}
}

func (o *exchOut) Close() error {
	o.once.Do(func() {
		// A consumer that leaves without a filter must not hold the
		// producers: its share of the stream is dropped anyway.
		o.PublishFilter(nil)
		close(o.closed)
		if o.x.closed.Add(1) == int64(len(o.x.outs)) && o.x.started.Load() {
			// The last consumer to leave waits for the producers, which
			// stop at their next batch: the query's teardown ends with its
			// exchanges. Earlier ones do not wait, so siblings can close
			// one after another from one goroutine while a producer still
			// waits for a sibling's filter.
			for b := range o.ch {
				b.Release()
			}
			return
		}
		// Whatever a producer sends after this drain, while the select in
		// deliver still finds room, the closer releases once the
		// producers are done.
		o.drain()
	})
	return nil
}

// drain releases the batches queued on the output without waiting.
func (o *exchOut) drain() {
	for {
		select {
		case b, ok := <-o.ch:
			if !ok {
				return
			}
			b.Release()
		default:
			return
		}
	}
}
