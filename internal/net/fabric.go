// netFabric implements exec.Fabric over the TCP mesh: the planner's
// distributed compiler lowers plans against it exactly as it does
// against the simulated NodeSet, and cannot tell them apart. Every
// process compiles the identical plan against its own netFabric view;
// exchange ids come from a deterministic per-compile counter, so the
// same exchange gets the same id in every process. A process
// instantiates pumps only for the plan fragments it hosts (its slots
// of the fragment→proc assignment); Output(i) for a fragment hosted
// elsewhere is exec.NotHere. The coordinator (proc 0) hosts no
// fragments — it hosts every coordinator stream (src -1): hyper and
// combination outputs, gathered intermediates feeding broadcasts and
// deals, and the final gather the session drains.
//
// A pump drives one hosted producer: it drains the fragment operator
// and routes rows to destinations with exactly the simulated
// exchange's rules (columnar gather lists, value.Hash64 % N, NULL keys
// to fragment 0, broadcast duplication, per-batch round-robin deal),
// packing per-destination pending batches and shipping each sealed
// batch either in-process (same bounded path, no encode) or as a
// tuple run frame under the stream's credit window.
package net

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
)

// route markers beyond shuffle key columns, matching the simulated
// exchange's conventions (-1 broadcast, -2 deal) plus -3 for the
// gather pump, which has the single destination -1 (the coordinator).
const (
	routeBroadcast = -1
	routeDeal      = -2
	routeGather    = -3
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
	errMu   sync.Mutex
	err     error
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

func (f *netFabric) ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate) exec.Operator {
	return f.ns.ScanAt(i, refs, preds)
}

func (f *netFabric) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	return f.ns.SplitRefs(refs)
}

// addPump registers a hosted producer for one exchange.
func (f *netFabric) addPump(exch, src int, op exec.Operator, route int) {
	f.pumps = append(f.pumps, &pump{f: f, exch: exch, src: src, op: op, route: route})
}

// exchange builds one exchange over per-fragment parts (src i = part
// i) or a single coordinator stream (src -1), registering pumps for
// the hosted producers.
func (f *netFabric) exchange(parts []exec.Operator, srcGlobal exec.Operator, route int) *netExch {
	id := f.nextID
	f.nextID++
	nprod := 1
	if srcGlobal == nil {
		nprod = len(parts)
		for i, p := range parts {
			if f.hosts(i) {
				f.addPump(id, i, p, route)
			}
		}
	} else if f.me == 0 {
		f.addPump(id, -1, srcGlobal, route)
	}
	return &netExch{f: f, id: id, nprod: nprod}
}

func (f *netFabric) Shuffle(parts []exec.Operator, key int) exec.Exchanger {
	return f.exchange(parts, nil, key)
}

func (f *netFabric) ShuffleGlobal(in exec.Operator, key int) exec.Exchanger {
	return f.exchange(nil, in, key)
}

func (f *netFabric) Broadcast(in exec.Operator) exec.Exchanger {
	return f.exchange(nil, in, routeBroadcast)
}

func (f *netFabric) Deal(in exec.Operator) exec.Exchanger {
	return f.exchange(nil, in, routeDeal)
}

// Gather merges per-fragment streams into the coordinator: hosted
// parts pump to destination -1; the coordinator consumes the merged
// queue, everyone else holds a placeholder that is never opened.
func (f *netFabric) Gather(parts []exec.Operator) exec.Operator {
	id := f.nextID
	f.nextID++
	for i, p := range parts {
		if f.hosts(i) {
			f.addPump(id, i, p, routeGather)
		}
	}
	if f.me != 0 {
		return exec.NotHere(-1)
	}
	q := f.at.queueFor(qkey{id, -1})
	q.setExpect(len(parts))
	return &recvOp{q: q}
}

// Run starts every registered pump. Pump failures fail the whole
// attempt in this process, unblocking local consumers.
func (f *netFabric) Run(ctx context.Context) {
	f.runOnce.Do(func() {
		for _, p := range f.pumps {
			f.wg.Add(1)
			go func(p *pump) {
				defer f.wg.Done()
				if err := p.run(ctx); err != nil {
					f.errMu.Lock()
					if f.err == nil {
						f.err = err
					}
					f.errMu.Unlock()
					f.at.fail(err)
				}
			}(p)
		}
	})
}

// Wait blocks until every pump exits and returns the first pump error.
func (f *netFabric) Wait() error {
	f.wg.Wait()
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// netExch is one exchange's consumer-side handle.
type netExch struct {
	f     *netFabric
	id    int
	nprod int
}

func (x *netExch) Output(i int) exec.Operator {
	if !x.f.hosts(i) {
		return exec.NotHere(i)
	}
	q := x.f.at.queueFor(qkey{x.id, i})
	q.setExpect(x.nprod)
	return &recvOp{q: q}
}

// pump drives one hosted producer of one exchange.
type pump struct {
	f     *netFabric
	exch  int
	src   int // producing fragment; -1 for a coordinator stream
	op    exec.Operator
	route int // shuffle key column, or routeBroadcast/Deal/Gather
	deal  uint64
	// enc is the pump's one encode buffer, reused for every remote frame
	// (a pump sends from its own goroutine only): wire prefix reserved in
	// front, then the stream header, then the run frame.
	enc []byte
}

// dsts returns the destination fragment ids this pump may route to.
func (p *pump) dsts() []int {
	if p.route == routeGather {
		return []int{-1}
	}
	out := make([]int, p.f.N())
	for i := range out {
		out[i] = i
	}
	return out
}

func (p *pump) dstProc(d int) int {
	if d < 0 {
		return 0 // gathers land on the coordinator
	}
	return p.f.assign[d]
}

// meterFor resolves the meter the pump charges exchanges into: the
// source fragment's shard, the parent meter for coordinator streams,
// nil for gathers (the simulated Gather is unmetered — parity).
func (p *pump) meterFor() interface {
	AddExchangeAt(src, dst int, rows, bytes int, remote bool)
} {
	if p.route == routeGather {
		return nil
	}
	if p.src >= 0 {
		return p.f.At(p.src).Meter
	}
	return p.f.ex.Meter
}

func (p *pump) run(ctx context.Context) error {
	n := p.f.N()
	meter := p.meterFor()
	dsts := p.dsts()
	// pend is indexed by destination fragment; slot n holds the gather
	// destination (-1).
	pend := make([]*exec.Batch, n+1)
	slot := func(d int) int {
		if d < 0 {
			return n
		}
		return d
	}
	var hv []uint64
	var dIdx [][]int32

	// A failed pump must NOT send EOS: a clean stream end with data
	// missing would silently truncate the result. Local consumers
	// unblock through at.fail (the Run wrapper); remote consumers
	// through the coordinator's abort broadcast.
	fail := func(err error) error {
		p.op.Close()
		return err
	}
	if err := p.op.Open(); err != nil {
		return fmt.Errorf("net: pump (%d,%d): open: %w", p.exch, p.src, err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if err := p.f.at.failure(); err != nil {
			return fail(err)
		}
		b, err := p.op.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		// Routing mirrors the simulated exchange: hash the key column
		// vectorized, split into per-destination gather lists,
		// bulk-gather into pending batches.
		cb := b.Cols()
		ln := cb.Len()
		sel := cb.Sel()
		if dIdx == nil {
			dIdx = make([][]int32, n)
		}
		switch {
		case p.route < 0:
			list := dIdx[0][:0]
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				list = append(list, int32(i))
			}
			dIdx[0] = list
			switch p.route {
			case routeGather:
				if err := p.packColGather(pend, slot, -1, cb, list, meter); err != nil {
					return fail(err)
				}
			case routeDeal:
				d := int(p.deal % uint64(n))
				p.deal++
				if err := p.packColGather(pend, slot, d, cb, list, meter); err != nil {
					return fail(err)
				}
			default: // broadcast
				for d := 0; d < n; d++ {
					if err := p.packColGather(pend, slot, d, cb, list, meter); err != nil {
						return fail(err)
					}
				}
			}
		default:
			hv = cb.Hash64Column(p.route, hv)
			for k := 0; k < ln; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				d := 0
				if !cb.IsNull(p.route, i) {
					d = int(hv[i] % uint64(n))
				}
				dIdx[d] = append(dIdx[d], int32(i))
			}
			for d := 0; d < n; d++ {
				if len(dIdx[d]) == 0 {
					continue
				}
				if err := p.packColGather(pend, slot, d, cb, dIdx[d], meter); err != nil {
					return fail(err)
				}
				dIdx[d] = dIdx[d][:0]
			}
		}
		b.Release()
	}
	// Flush pending, then EOS every destination.
	for _, d := range dsts {
		if pb := pend[slot(d)]; pb != nil {
			pend[slot(d)] = nil
			if pb.Len() > 0 {
				if err := p.send(d, pb, meter); err != nil {
					return fail(err)
				}
			} else {
				pb.Release()
			}
		}
	}
	if err := p.op.Close(); err != nil {
		return err
	}
	return p.sendEOSAll(dsts)
}

// packColGather bulk-gathers listed rows into destination d's pending
// columnar batch in capacity-sized chunks.
func (p *pump) packColGather(pend []*exec.Batch, slot func(int) int, d int, cb *tuple.Columns, idxs []int32, meter exchMeter) error {
	s := slot(d)
	for len(idxs) > 0 {
		pb := pend[s]
		if pb == nil {
			pb = exec.NewColBatch(cb.NumCols())
			pend[s] = pb
		}
		room := exec.DefaultBatchSize - pb.Cols().FullLen()
		if room <= 0 {
			pend[s] = nil
			if err := p.send(d, pb, meter); err != nil {
				return err
			}
			continue
		}
		take := len(idxs)
		if take > room {
			take = room
		}
		pb.AppendColGather(cb, idxs[:take])
		idxs = idxs[take:]
		if pb.Full() {
			pend[s] = nil
			if err := p.send(d, pb, meter); err != nil {
				return err
			}
		}
	}
	return nil
}

type exchMeter interface {
	AddExchangeAt(src, dst int, rows, bytes int, remote bool)
}

// send ships one sealed batch to destination fragment d: metering
// identical to the simulated exchange (wire-byte estimate, fragment-
// level remoteness), then either the in-process bounded path or a run
// frame, encoded into the pump's reused buffer and written from it,
// under the stream's credit window.
func (p *pump) send(d int, b *exec.Batch, meter exchMeter) error {
	if meter != nil {
		remote := p.src != d && p.f.N() > 1
		bytes := 0
		if remote {
			bytes = exec.BatchWireBytes(b)
		}
		meter.AddExchangeAt(p.src, d, b.Len(), bytes, remote)
	}
	key := streamKey{p.exch, p.src, d}
	gate := p.f.at.gateFor(key)
	proc := p.dstProc(d)
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
	var prefix [frameHdrLen]byte
	buf := appendStreamHdr(append(p.enc[:0], prefix[:]...), streamHdr{qid: p.f.qid, exch: p.exch, src: p.src, dst: d})
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
	p.f.ex.Meter.AddLinkNanos(p.src, d, frameLen, time.Since(t0).Nanoseconds())
	return nil
}

// sendEOSAll marks the stream end toward every destination.
func (p *pump) sendEOSAll(dsts []int) error {
	var first error
	for _, d := range dsts {
		proc := p.dstProc(d)
		if proc == p.f.me {
			p.f.at.queueFor(qkey{p.exch, d}).eosFrom(p.src)
			continue
		}
		c := p.f.ep.peerConn(proc)
		if c == nil {
			if first == nil {
				first = &NetError{Msg: "no connection for stream end", Peer: proc}
			}
			continue
		}
		hdr := appendStreamHdr(nil, streamHdr{qid: p.f.qid, exch: p.exch, src: p.src, dst: d})
		if err := c.writeFrame(msgEOS, hdr); err != nil && first == nil {
			first = &NetError{Msg: err.Error(), Peer: proc}
		}
	}
	return first
}

// encodeBatch appends the batch's tuple run frame, encoded straight
// from its vectors. Pump-packed batches are always selection-free,
// which the columnar encoder requires.
func encodeBatch(dst []byte, b *exec.Batch) ([]byte, error) {
	cb := b.Cols()
	if cb.Sel() != nil {
		return nil, fmt.Errorf("net: cannot encode a columnar batch with a selection")
	}
	return cb.AppendFrame(dst), nil
}
