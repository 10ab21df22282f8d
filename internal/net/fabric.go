// netFabric implements exec.Fabric over the TCP mesh: the planner's
// distributed compiler lowers plans against it exactly as it does
// against the simulated NodeSet, and cannot tell them apart. Every
// worker compiles the identical plan against its own netFabric view;
// exchange ids come from a deterministic per-compile counter, so the
// same exchange gets the same id in every worker. A worker
// instantiates pumps only for the plan fragments it hosts (its slots
// of the fragment→proc assignment); Output(i) for a fragment hosted
// elsewhere is exec.NotHere. The coordinator (proc 0) hosts no
// fragment and needs no view: every operator below the root gather —
// scans, joins, each node's hyper-join fragment, the residual filters
// and the projection — runs in the worker hosting its fragment, and the
// coordinator drains the gather's one queue (Attempt.Root) under the
// spec's group-by, which planner.Runner.Top builds from the spec alone.
//
// A pump drives one hosted producer: the routing loop is the simulated
// exchange's own, exec.Producer — hash (filtered or not), broadcast,
// packing, metering — and the pump supplies only the transport.
// It stops on ctx or attempt failure, waits for filter frames, and
// ships each batch either in-process (same bounded path, no encode) or
// as a tuple run frame under the stream's credit window. A gather is a
// deal over one destination, the coordinator's fragment -1. A hash
// route's rows for the pump's own fragment are not packed: the input
// batch, narrowed to them, takes the in-process path itself. A pump
// that fails sends no EOS.
//
// A filtered exchange (a shuffle join's probe side) carries one more
// kind of traffic, against the rows: the process hosting fragment i's
// join sends its sealed build's key filter as a filter frame to every
// process hosting one of the exchange's producers, and delivers it
// in-process to its own. A pump routes nothing until every
// destination's filter has arrived; attempt failure, abort and ctx
// release the wait. Filter frames count as link bytes, never as
// exchange rows, so both N-node fabrics meter the same counters.
package net

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/recycle"
)

type netFabric struct {
	ep     *endpoint
	at     *attempt
	ex     *exec.Executor // this process's parent executor (meter home)
	ns     *exec.NodeSet
	qid    uint64
	assign []int // fragment → hosting proc
	me     int

	nextID int
	pumps  []*pump

	runOnce sync.Once
	wg      sync.WaitGroup
}

// newNetFabric builds one process's fabric view for one attempt. The
// executor must have a NodeSet (per-fragment views) of len(assign)
// fragments.
func newNetFabric(ep *endpoint, at *attempt, ex *exec.Executor, assign []int) (*netFabric, error) {
	ns := ex.Nodes()
	if ns == nil {
		return nil, fmt.Errorf("net: executor has no node set (Distributed not enabled)")
	}
	if ns.N() != len(assign) {
		return nil, fmt.Errorf("net: %d fragments assigned over a %d-node store", len(assign), ns.N())
	}
	return &netFabric{ep: ep, at: at, ex: ex, ns: ns, qid: at.qid, assign: assign, me: ep.proc}, nil
}

func (f *netFabric) hosts(i int) bool { return f.assign[i] == f.me }

func (f *netFabric) N() int                  { return f.ns.N() }
func (f *netFabric) At(i int) *exec.Executor { return f.ns.At(i) }

func (f *netFabric) ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate, cols []int) exec.Operator {
	return f.ns.At(i).ScanOp(refs, preds, cols)
}

func (f *netFabric) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	return f.ns.SplitRefs(refs)
}

// addPump registers a hosted producer for one exchange (x nil for a
// gather: a deal over one destination, fragment -1).
func (f *netFabric) addPump(x *netExch, exch, src int, op exec.Operator) {
	p := &pump{f: f, x: x, exch: exch, prod: exec.Producer{In: op, Src: src, N: 1, Route: exec.RouteDeal}}
	if x != nil {
		// The pump charges the source fragment's shard; a gather is
		// unmetered, as the simulated Gather is.
		p.prod.N, p.prod.Route, p.prod.Meter = f.N(), x.route, f.At(src).Meter
	}
	f.pumps = append(f.pumps, p)
}

// exchange builds one exchange over per-fragment parts (src i = part
// i), registering pumps for the hosted producers.
func (f *netFabric) exchange(parts []exec.Operator, route int) *netExch {
	x := &netExch{f: f, id: f.nextID, nprod: len(parts), route: route}
	f.nextID++
	for i, p := range parts {
		if f.hosts(i) {
			f.addPump(x, x.id, i, p)
		}
	}
	return x
}

// The exchange constructors ignore the charge class: like the simulated
// fabric, the TCP fabric meters the rows that cross nodes, and an
// in-place edge crosses none.

func (f *netFabric) Shuffle(parts []exec.Operator, key int, _ exec.Charge) exec.Exchanger {
	return f.exchange(parts, key)
}

func (f *netFabric) Broadcast(parts []exec.Operator, _ exec.Charge) exec.Exchanger {
	return f.exchange(parts, exec.RouteBroadcast)
}

func (f *netFabric) InPlace(in exec.Operator, _ exec.Charge) exec.Operator { return in }

// Gather merges per-fragment streams into the coordinator: hosted
// parts pump to destination -1; the coordinator consumes the merged
// queue (the one Attempt.Root returns), everyone else holds a
// placeholder that is never opened.
func (f *netFabric) Gather(parts []exec.Operator) exec.Operator {
	id := f.nextID
	f.nextID++
	for i, p := range parts {
		if f.hosts(i) {
			f.addPump(nil, id, i, p)
		}
	}
	if f.me != 0 {
		return exec.NotHere(-1)
	}
	return f.at.root(len(parts))
}

// Run starts every registered pump. A pump failure fails the whole
// attempt in this process, unblocking local consumers; the attempt
// keeps its first failure (attempt.failure).
func (f *netFabric) Run(ctx context.Context) {
	f.runOnce.Do(func() {
		for _, p := range f.pumps {
			f.wg.Add(1)
			go func(p *pump) {
				defer f.wg.Done()
				if err := p.run(ctx); err != nil {
					f.at.fail(err)
				}
			}(p)
		}
	})
}

// Wait blocks until every pump exits.
func (f *netFabric) Wait() { f.wg.Wait() }

// netExch is one exchange's handle, shared by its consumers and the
// pumps this process hosts.
type netExch struct {
	f     *netFabric
	id    int
	nprod int
	route int
	// filtered is set by FilterProbe during the compile, before any
	// pump runs.
	filtered bool
}

func (x *netExch) Output(i int) exec.Operator {
	if !x.f.hosts(i) {
		return exec.NotHere(i)
	}
	q := x.f.at.queueFor(qkey{x.id, i})
	q.setExpect(x.nprod)
	return &recvOp{q: q, x: x, dst: i}
}

// FilterProbe makes a hash exchange wait for, and route by, the filters
// of the joins its outputs feed, as exec.Exchange.FilterProbe does.
func (x *netExch) FilterProbe() {
	if x.route >= 0 {
		x.filtered = true
	}
}

// publishFilter delivers destination d's join filter to every process
// hosting a producer of the exchange: in-process to this one's pumps,
// as one filter frame to each other process. The frame's bytes and
// write time count as link traffic from fragment d to the first
// producer the process hosts; they enter no exchange counter. A failed
// write fails the attempt, which releases the waiting pumps.
func (x *netExch) publishFilter(d int, f *exec.KeyFilter) {
	n := x.f.N()
	var frame []byte
	sent := map[int]bool{}
	for src := 0; src < x.nprod; src++ {
		proc := x.f.dstProc(src)
		if sent[proc] {
			continue
		}
		sent[proc] = true
		if proc == x.f.me {
			x.f.at.filtersFor(x.id, n).Publish(d, f)
			continue
		}
		if frame == nil {
			frame = appendStreamHdr(nil, streamHdr{qid: x.f.qid, exch: x.id, src: -1, dst: d})
			frame = binary.AppendUvarint(frame, uint64(n))
			frame = exec.AppendKeyFilter(frame, f)
		}
		c := x.f.ep.peerConn(proc)
		if c == nil {
			x.f.at.fail(&NetError{Msg: "no connection for filter", Peer: proc})
			return
		}
		t0 := time.Now()
		if err := c.writeFrame(msgFilter, frame); err != nil {
			x.f.at.fail(&NetError{Msg: err.Error(), Peer: proc})
			return
		}
		x.f.ex.Meter.AddLinkNanos(d, src, len(frame), time.Since(t0).Nanoseconds())
	}
}

// dstProc is the process hosting fragment d, the coordinator for -1.
func (f *netFabric) dstProc(d int) int {
	if d < 0 {
		return 0
	}
	return f.assign[d]
}

// pump drives one hosted producer of one exchange: exec.Producer's
// routing loop over this fabric's transport.
type pump struct {
	f    *netFabric
	x    *netExch // nil for a gather
	exch int
	prod exec.Producer
	// enc is the pump's one encode buffer, reused for every remote frame
	// (a pump sends from its own goroutine only, and a frame is written
	// before the next is encoded): wire prefix reserved in front, then
	// the stream header, then the run frame. It comes from the recycler
	// at the first remote frame and goes back when the pump ends.
	enc []byte
}

// dst maps the producer's destination d to its fragment: the gather's
// one destination is the coordinator (-1).
func (p *pump) dst(d int) int {
	if p.x == nil {
		return -1
	}
	return d
}

// run drains the producer, then marks the stream end toward every
// destination. A failed pump must NOT send EOS: a clean stream end with
// data missing would silently truncate the result. Local consumers
// unblock through at.fail (the Run wrapper); remote consumers through
// the coordinator's abort broadcast.
func (p *pump) run(ctx context.Context) error {
	p.prod.Stop = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return p.f.at.failure()
	}
	if p.x != nil && p.x.filtered {
		p.prod.Filters = func() ([]*exec.KeyFilter, error) { return p.awaitFilters(ctx) }
	}
	p.prod.Deliver = p.send
	defer func() {
		recycle.Bytes.Put(p.enc)
		p.enc = nil
	}()
	if err := p.prod.Run(); err != nil {
		return err
	}
	return p.sendEOSAll()
}

// awaitFilters returns the destinations' join filters of a filtered
// exchange once every destination has published them. Attempt failure,
// abort and ctx release the wait.
func (p *pump) awaitFilters(ctx context.Context) ([]*exec.KeyFilter, error) {
	fs := p.f.at.filtersFor(p.exch, p.f.N())
	select {
	case <-fs.Ready():
		if all := fs.All(); len(all) == p.f.N() {
			return all, nil
		}
		return nil, fmt.Errorf("net: pump (%d,%d): filter frames for %d destinations, want %d", p.exch, p.prod.Src, len(fs.All()), p.f.N())
	case <-p.f.at.done:
		if err := p.f.at.failure(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("net: pump (%d,%d): attempt ended before its filters arrived", p.exch, p.prod.Src)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// send ships one batch to the producer's destination d, either by the
// in-process bounded path or as a run frame, encoded into the pump's
// reused buffer and written from it, under the stream's credit window.
func (p *pump) send(d int, b *exec.Batch) error {
	src, d := p.prod.Src, p.dst(d)
	key := streamKey{p.exch, src, d}
	gate := p.f.at.gateFor(key)
	proc := p.f.dstProc(d)
	if proc == p.f.me {
		wire := exec.BatchWireBytes(b)
		if wire < 1 {
			wire = 1
		}
		if err := gate.acquire(wire); err != nil {
			b.Release()
			return err
		}
		p.f.at.queueFor(qkey{p.exch, d}).push(inItem{b: b, bytes: wire, from: -1, key: key})
		return nil
	}
	// The buffer is sized by the batch's wire bytes, its credit charge,
	// so the frame seldom outgrows it while it encodes.
	p.enc = recycle.Bytes.Fit(p.enc, frameHdrLen+maxStreamHdrLen+exec.BatchWireBytes(b))
	var prefix [frameHdrLen]byte
	buf := appendStreamHdr(append(p.enc[:0], prefix[:]...), streamHdr{qid: p.f.qid, exch: p.exch, src: src, dst: d})
	hdrEnd := len(buf)
	buf, err := encodeBatch(buf, b)
	b.Release()
	if err != nil {
		return err
	}
	p.enc = buf
	frameLen := len(buf) - hdrEnd
	if err := gate.acquire(frameLen); err != nil {
		return err
	}
	c := p.f.ep.peerConn(proc)
	if c == nil {
		return &NetError{Msg: "no connection for stream destination", Peer: proc}
	}
	t0 := time.Now()
	if err := c.writeReserved(msgData, buf); err != nil {
		return &NetError{Msg: err.Error(), Peer: proc}
	}
	// Measured per-link traffic: actual frame bytes and write time feed
	// the Bala-Join-style link weights of cluster/links.go.
	p.f.ex.Meter.AddLinkNanos(src, d, frameLen, time.Since(t0).Nanoseconds())
	return nil
}

// sendEOSAll marks the stream end toward every destination.
func (p *pump) sendEOSAll() error {
	var first error
	for i := 0; i < p.prod.N; i++ {
		d := p.dst(i)
		proc := p.f.dstProc(d)
		if proc == p.f.me {
			p.f.at.queueFor(qkey{p.exch, d}).eosFrom(p.prod.Src)
			continue
		}
		c := p.f.ep.peerConn(proc)
		if c == nil {
			if first == nil {
				first = &NetError{Msg: "no connection for stream end", Peer: proc}
			}
			continue
		}
		hdr := appendStreamHdr(nil, streamHdr{qid: p.f.qid, exch: p.exch, src: p.prod.Src, dst: d})
		if err := c.writeFrame(msgEOS, hdr); err != nil && first == nil {
			first = &NetError{Msg: err.Error(), Peer: proc}
		}
	}
	return first
}

// encodeBatch appends the batch's tuple run frame, encoded straight
// from its vectors. Pump-packed batches are always selection-free,
// which the columnar encoder requires; only the in-process path carries
// a forwarded batch with a selection.
func encodeBatch(dst []byte, b *exec.Batch) ([]byte, error) {
	cb := b.Cols()
	if cb.Sel() != nil {
		return nil, fmt.Errorf("net: cannot encode a columnar batch with a selection")
	}
	return cb.AppendFrame(dst), nil
}
