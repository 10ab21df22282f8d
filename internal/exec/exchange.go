// Exchange operators: the simulated network between node executors.
//
// An Exchange takes one plan-fragment stream per producing node and
// re-partitions its rows across the consuming nodes — by join-key hash
// (Shuffle) or by duplication (Broadcast). Rows delivered to the node
// that produced them are free; rows delivered anywhere else are charged
// to the producing node's meter as remote exchange rows with their
// approximate wire bytes (cluster.Meter.AddExchange). This is the
// accounting point that replaced the old per-call-site Meter.Add*
// charging inside the join: what the cost model prices is exactly what
// physically crossed between nodes.
//
// Batch ownership across an exchange: a batch never crosses the wire —
// only rows do. The producer gathers rows into fresh columnar batches,
// one pending batch per destination node, copying vectors (string
// payloads are shared, immutable headers), so the source batch can be
// released at once; ownership of a packed batch passes to the
// destination node's consumer at channel handoff, and the consumer
// Releases it.
//
// Exchanges charge no MemBudget: the batches in flight are bounded by
// construction, not by accounting. Each destination channel queues at
// most exchQueue batches, and each producer holds at most one pending
// batch per destination (the one it is filling, or the one blocked in
// send), so a destination never has more than exchQueue + producers
// batches in flight. That is the simulated counterpart of the TCP
// fabric's per-stream credit window, which bounds the same bytes and
// charges nothing either. The budget is for operator state that grows
// with the input; charging flow too would only make spill volume
// depend on producer timing.
package exec

import (
	"sync"
	"sync/atomic"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Exchange moves rows between node executors. Build one with
// NodeSet.Shuffle, NodeSet.ShuffleGlobal, or NodeSet.Broadcast, then
// hand Output(i) to node i's consuming fragment. Opening any output
// starts the producers (one goroutine per input fragment, each owning
// its fragment's full Open/Next/Close lifecycle); every output must be
// opened and drained — or closed — for the exchange to finish.
type Exchange struct {
	ns     *NodeSet
	inputs []Operator
	// srcNode[i] is the node inputs[i] runs on, or -1 for a coordinator
	// stream (a gathered intermediate) whose deliveries are all remote.
	srcNode []int
	// key is the hash column for a shuffle exchange, -1 for broadcast,
	// -2 for round-robin deal.
	key  int
	deal uint64 // round-robin cursor for deal exchanges
	outs []*exchOut

	start   sync.Once
	started atomic.Bool // producers are (about to be) running
	wg      sync.WaitGroup
	closed  atomic.Int64 // outputs closed early; producers bail when all are
	errMu   sync.Mutex
	err     error // first producer error; published before channels close
}

// Shuffle builds a hash exchange over per-node fragments: parts[i] runs
// on node i, and each of its rows is routed to node Hash64(row[key]) %
// N — deterministic, value.Hash64-consistent routing, so equal keys
// always meet at the same node. NULL keys route to node 0; they can
// never match anything (joins skip them), so their destination only
// needs to be deterministic.
func (ns *NodeSet) Shuffle(parts []Operator, key int) *Exchange {
	x := &Exchange{ns: ns, key: key}
	for i, p := range parts {
		x.inputs = append(x.inputs, p)
		x.srcNode = append(x.srcNode, i)
	}
	x.build()
	return x
}

// ShuffleGlobal hash-partitions a single coordinator stream (a gathered
// intermediate) across the nodes. Every delivery is remote: the stream
// has no home node.
func (ns *NodeSet) ShuffleGlobal(in Operator, key int) *Exchange {
	x := &Exchange{ns: ns, key: key, inputs: []Operator{in}, srcNode: []int{-1}}
	x.build()
	return x
}

// Broadcast duplicates a single stream to every node exactly once — the
// one-side exchange of a semi-shuffle join: the small (build) side
// crosses the network N ways while the big side never moves.
func (ns *NodeSet) Broadcast(in Operator) *Exchange {
	x := &Exchange{ns: ns, key: -1, inputs: []Operator{in}, srcNode: []int{-1}}
	x.build()
	return x
}

// Deal spreads a coordinator stream across the nodes batch by batch,
// round-robin. No key is involved: any disjoint split is correct when
// the join's other side is broadcast to every node, and each row
// crosses the network exactly once — the cheap half of a
// broadcast-small/deal-big join on a large intermediate.
func (ns *NodeSet) Deal(in Operator) *Exchange {
	x := &Exchange{ns: ns, key: -2, inputs: []Operator{in}, srcNode: []int{-1}}
	x.build()
	return x
}

// exchQueue is the per-destination channel capacity in batches: the
// queued half of an exchange's in-flight bound.
const exchQueue = 4

func (x *Exchange) build() {
	n := x.ns.N()
	for i := 0; i < n; i++ {
		x.outs = append(x.outs, &exchOut{
			x:      x,
			node:   i,
			ch:     make(chan *Batch, exchQueue),
			closed: make(chan struct{}),
		})
	}
}

// Output returns the operator node i's fragment consumes: the stream of
// batches whose rows were routed to node i.
func (x *Exchange) Output(i int) Operator { return x.outs[i] }

// run starts one producer per input fragment and a closer that seals
// the output channels once every producer is done.
func (x *Exchange) run() {
	x.started.Store(true)
	for i := range x.inputs {
		x.wg.Add(1)
		go x.produce(x.inputs[i], x.srcNode[i])
	}
	go func() {
		x.wg.Wait()
		for _, o := range x.outs {
			close(o.ch)
		}
	}()
}

// produce drains one input fragment, routing rows into per-destination
// pending batches and handing full ones to the destination's channel.
// The producer meters each handed-off batch into the source node's
// shard (or the parent meter for coordinator streams).
func (x *Exchange) produce(in Operator, src int) {
	defer x.wg.Done()
	n := x.ns.N()
	meter := x.ns.parent.Meter
	if src >= 0 {
		meter = x.ns.shards[src]
	}
	pend := make([]*Batch, n)
	var hv []uint64    // reused hash vector for columnar shuffle routing
	var dIdx [][]int32 // reused per-destination gather lists
	if err := in.Open(); err != nil {
		x.fail(err)
		return
	}
	for {
		if int(x.closed.Load()) == len(x.outs) {
			break // every consumer is gone; stop pulling
		}
		if cerr := x.ns.parent.ctxErr(); cerr != nil {
			x.fail(cerr)
			break
		}
		b, err := in.Next()
		if err != nil {
			x.fail(err)
			break
		}
		if b == nil {
			break
		}
		// Rows route without being boxed: the key column hashes
		// vectorized (Hash64Column matches value.Hash64), rows split into
		// per-destination gather lists, and each list bulk-gathers
		// column-at-a-time into the destination's pending batch.
		cb := b.Cols()
		ln := cb.Len()
		sel := cb.Sel()
		if dIdx == nil {
			dIdx = make([][]int32, n)
		}
		switch {
		case x.key == -1 || x.key == -2:
			// Broadcast and deal move whole row sets: one gather list of
			// every selected row, delivered to all nodes or one.
			list := dIdx[0][:0]
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				list = append(list, int32(i))
			}
			dIdx[0] = list
			if x.key == -2 {
				d := int(x.deal % uint64(n))
				x.deal++
				x.packColGather(pend, d, cb, list, src, meter)
			} else {
				for d := 0; d < n; d++ {
					x.packColGather(pend, d, cb, list, src, meter)
				}
			}
		default:
			hv = cb.Hash64Column(x.key, hv)
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				d := 0
				if !cb.IsNull(x.key, i) {
					d = int(hv[i] % uint64(n))
				}
				dIdx[d] = append(dIdx[d], int32(i))
			}
			for d := 0; d < n; d++ {
				if len(dIdx[d]) == 0 {
					continue
				}
				x.packColGather(pend, d, cb, dIdx[d], src, meter)
				dIdx[d] = dIdx[d][:0]
			}
		}
		b.Release()
	}
	for d, pb := range pend {
		if pb != nil && pb.Len() > 0 {
			x.send(d, pb, src, meter)
		} else if pb != nil {
			pb.Release()
		}
	}
	if err := in.Close(); err != nil {
		x.fail(err)
	}
}

// packColGather appends the listed physical rows of a columnar source
// to destination d's pending columnar batch in capacity-sized chunks —
// one bulk gather per column per chunk, string payloads shared, never
// boxed. Safe across the source batch's Release: headers are copied
// and payload bytes are immutable.
func (x *Exchange) packColGather(pend []*Batch, d int, cb *tuple.Columns, idxs []int32, src int, meter meterSink) {
	for len(idxs) > 0 {
		pb := pend[d]
		if pb == nil {
			pb = NewColBatch(cb.NumCols())
			pend[d] = pb
		}
		room := DefaultBatchSize - pb.Cols().FullLen()
		if room <= 0 {
			x.send(d, pb, src, meter)
			pend[d] = nil
			continue
		}
		take := len(idxs)
		if take > room {
			take = room
		}
		pb.AppendColGather(cb, idxs[:take])
		idxs = idxs[take:]
		if pb.Full() {
			x.send(d, pb, src, meter)
			pend[d] = nil
		}
	}
}

// meterSink is the single method exchanges need from a meter; it keeps
// produce/packColGather testable and the accounting point explicit. The (src,
// dst) link identity feeds the per-link accounting of cluster/links.go
// (cluster.Meter satisfies this via AddExchangeAt).
type meterSink interface {
	AddExchangeAt(src, dst int, rows, bytes int, remote bool)
}

// send hands a packed batch to destination d's consumer, metering the
// movement: remote when the producing node is not the destination (or
// when the stream has no home node). A one-node cluster has no network
// at all, so nothing it moves is ever remote.
func (x *Exchange) send(d int, b *Batch, src int, meter meterSink) {
	remote := src != d && x.ns.N() > 1
	bytes := 0
	if remote {
		bytes = BatchWireBytes(b)
	}
	meter.AddExchangeAt(src, d, b.Len(), bytes, remote)
	o := x.outs[d]
	select {
	case o.ch <- b:
	case <-o.closed:
		b.Release() // consumer gone; its share of the stream is dropped
	}
}

func (x *Exchange) fail(err error) {
	x.errMu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.errMu.Unlock()
}

func (x *Exchange) firstErr() error {
	x.errMu.Lock()
	defer x.errMu.Unlock()
	return x.err
}

// BatchWireBytes approximates a batch's serialized size: a fixed 16-byte
// value header per cell plus string payloads, summed column-at-a-time
// (null cells count the header only) — cheap, stable across runs, and
// close enough for a simulated network's byte counters. The TCP fabric
// meters with it too, so its exchange counters price identically to
// the simulated fabric's for the same row flow.
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
		// error (if any) is published by now.
		return nil, o.x.firstErr()
	}
	return b, nil
}

func (o *exchOut) Close() error {
	o.once.Do(func() {
		close(o.closed)
		o.x.closed.Add(1)
		if !o.x.started.Load() {
			// The exchange never started (e.g. a join's build side
			// errored before its probe output was opened): nothing will
			// ever close ch, so a blocking drain would hang forever.
			// Producers that race past the started check observe the
			// closed channel in send() and release batches themselves;
			// at worst a few buffered batches fall to the GC.
			for {
				select {
				case b := <-o.ch:
					b.Release()
				default:
					return
				}
			}
		}
		// Drain so no producer stays blocked on this destination; the
		// channel closes once every producer exits (all outputs are
		// eventually drained or closed during teardown).
		for b := range o.ch {
			b.Release()
		}
	})
	return nil
}
