// Exchange operators: the simulated network between node executors.
//
// An Exchange takes one plan-fragment stream per producing node and
// re-partitions its rows across the consuming nodes — by join-key hash
// (Shuffle) or by duplication (Broadcast). Rows delivered to the node
// that produced them are free; rows delivered anywhere else are charged
// to the producing node's meter as remote exchange rows with their
// approximate wire bytes (cluster.Meter.AddExchange): what the cost
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
// Counters.ExchFilteredRows. RouteHash is the one hash route, shared
// with the TCP fabric's pumps, so both N-node fabrics move and drop
// exactly the same rows.
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
	// filters is set by FilterProbe: the exchange feeds one hash join's
	// probe side per output, and producers route only once every
	// output's join has published its filter.
	filters *KeyFilters

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

// FilterProbe makes a hash exchange the probe input of one hash join
// per output. Its producers wait until every output has published a
// filter (FilterSink) — the join's build-key filter, or a pass-all
// from a join that failed or closed — and then drop the rows that
// cannot match. Call it before any output opens.
func (x *Exchange) FilterProbe() {
	if x.key >= 0 {
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
// shard (or the parent meter for coordinator streams). A filtered
// exchange's producer first waits for every destination's filter.
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
	filters, ferr := x.awaitFilters()
	if ferr != nil {
		x.fail(ferr)
	}
	dropped := 0
	for ferr == nil {
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
		// vectorized, rows split into per-destination gather lists, and
		// each list bulk-gathers column-at-a-time into the destination's
		// pending batch.
		cb := b.Cols()
		if dIdx == nil {
			dIdx = make([][]int32, n)
		}
		switch {
		case x.key == -1 || x.key == -2:
			// Broadcast and deal move whole row sets: one gather list of
			// every selected row, delivered to all nodes or one.
			dIdx[0] = SelectedRows(cb, dIdx[0][:0])
			if x.key == -2 {
				d := int(x.deal % uint64(n))
				x.deal++
				x.packColGather(pend, d, cb, dIdx[0], src, meter)
			} else {
				for d := 0; d < n; d++ {
					x.packColGather(pend, d, cb, dIdx[0], src, meter)
				}
			}
		default:
			var drop int
			hv, drop = RouteHash(cb, x.key, hv, dIdx, filters)
			dropped += drop
			for d := 0; d < n; d++ {
				if d == src || len(dIdx[d]) == 0 {
					continue
				}
				x.packColGather(pend, d, cb, dIdx[d], src, meter)
				dIdx[d] = dIdx[d][:0]
			}
			if src >= 0 && len(dIdx[src]) > 0 {
				// The producing node's own rows stay in the input batch,
				// which is handed off instead of released.
				b.KeepRows(dIdx[src])
				dIdx[src] = dIdx[src][:0]
				x.send(src, b, src, meter)
				continue
			}
		}
		b.Release()
	}
	if dropped > 0 {
		meter.AddExchFiltered(dropped)
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

// awaitFilters returns the destinations' filters of a filtered
// exchange once every destination has published (nil for an unfiltered
// one), or the query's cancellation.
func (x *Exchange) awaitFilters() ([]*KeyFilter, error) {
	if x.filters == nil {
		return nil, nil
	}
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

// selectedRows appends cb's selected physical rows to dst.
func SelectedRows(cb *tuple.Columns, dst []int32) []int32 {
	if sel := cb.Sel(); sel != nil {
		return append(dst, sel...)
	}
	for i := 0; i < cb.Len(); i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// RouteHash is the hash route of both N-node fabrics. It hashes cb's
// key column into hv (returned, grown as needed) and appends each
// selected physical row to dIdx[d], d = Hash64(key) % len(dIdx), so
// equal keys always meet at the same destination. An unfiltered route
// (filters nil) sends a NULL key to destination 0: it can never match,
// so its destination only needs to be deterministic. A filtered route
// has one filter per destination (nil passes every key) and drops each
// row whose key is NULL or that its destination's filter rejects; it
// returns how many rows it dropped.
func RouteHash(cb *tuple.Columns, key int, hv []uint64, dIdx [][]int32, filters []*KeyFilter) ([]uint64, int) {
	hv = cb.Hash64Column(key, hv)
	n := uint64(len(dIdx))
	ln, sel := cb.Len(), cb.Sel()
	kv := cb.Col(key)
	hasNull := kv.Valid() != nil || kv.Boxed() != nil
	dropped := 0
	for k := 0; k < ln; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		d := 0
		if !hasNull || kv.IsValid(i) {
			d = int(hv[i] % n)
			if filters != nil && filters[d] != nil && !filters[d].mayPass(hv[i]) {
				dropped++
				continue
			}
		} else if filters != nil {
			dropped++
			continue
		}
		dIdx[d] = append(dIdx[d], int32(i))
	}
	return hv, dropped
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
	AddExchFiltered(rows int)
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
