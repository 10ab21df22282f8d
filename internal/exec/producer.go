// The exchange producer: one routing loop for every exchange input of
// both N-node fabrics. A Producer opens its input, waits for the
// destinations' key filters of a filtered hash exchange, routes each
// input batch's rows by key hash (dropping what the filters reject),
// broadcast or deal, packs them into per-destination pending batches
// of DefaultBatchSize rows, meters every delivery, flushes and closes
// the input. A fabric supplies only what differs: its stop check, its
// filter wait and its Deliver — a channel send on the simulated fabric
// (exchange.go), an in-process queue or an encoded frame under credit
// on the TCP fabric (internal/net). Both therefore move, drop and meter
// exactly the same rows.
package exec

import (
	"adaptdb/internal/cluster"
	"adaptdb/internal/tuple"
)

// Route kinds of a Producer. A hash route is its key column (≥ 0).
const (
	// RouteBroadcast delivers every row to every destination.
	RouteBroadcast = -1
	// RouteDeal delivers each input batch's rows to one destination,
	// round-robin. A deal over one destination is a gather.
	RouteDeal = -2
)

// Producer drives one exchange input. Set the exported fields, then
// call Run once.
type Producer struct {
	In Operator
	// Src is the node In runs on, or -1 for a stream with no home node,
	// whose deliveries are all remote.
	Src   int
	N     int // destinations
	Route int // key column, RouteBroadcast or RouteDeal
	// Meter is charged each delivery's rows (and, when remote, wire
	// bytes) and the filter's dropped rows. Nil leaves the run unmetered.
	Meter *cluster.Meter

	// Stop is checked before each input batch; an error ends the run.
	Stop func() error
	// Filters waits for a filtered hash exchange's destination filters,
	// one per destination (nil passes every key). Nil for an unfiltered
	// exchange.
	Filters func() ([]*KeyFilter, error)
	// Deliver hands b to destination d. It owns b from then on, whether
	// or not it fails.
	Deliver func(d int, b *Batch) error

	filters []*KeyFilter
	pend    []*Batch  // the batch being packed per destination
	hv      []uint64  // reused key hash vector
	dIdx    [][]int32 // reused per-destination gather lists
	deal    int       // next deal destination
	dropped int       // rows the filters rejected
}

// Run drains In into the destinations. A non-own row is copied into its
// destination's pending batch, column at a time, never boxed; a hash
// route's rows for Src itself stay in the input batch, narrowed to them
// (Batch.KeepRows), which is delivered instead of released. Every
// delivered pending batch is full except each destination's last.
//
// After an error nothing more is delivered: pending batches are
// released, In is closed and the error returned. An input that fails to
// open is not closed.
func (p *Producer) Run() error {
	if err := p.In.Open(); err != nil {
		return err
	}
	p.pend, p.dIdx = make([]*Batch, p.N), make([][]int32, p.N)
	err := p.drain()
	hashPool.Put(p.hv)
	p.hv = nil
	if p.dropped > 0 && p.Meter != nil {
		p.Meter.AddExchFiltered(p.dropped)
	}
	for d, pb := range p.pend {
		switch {
		case pb == nil:
		case err == nil:
			err = p.deliver(d, pb)
		default:
			pb.Release()
		}
	}
	if cerr := p.In.Close(); err == nil {
		err = cerr
	}
	return err
}

// drain routes every input batch until the input ends, Stop or
// Filters fails, or an input batch or a delivery fails.
func (p *Producer) drain() error {
	if p.Filters != nil {
		var err error
		if p.filters, err = p.Filters(); err != nil {
			return err
		}
	}
	for {
		if err := p.Stop(); err != nil {
			return err
		}
		b, err := p.In.Next()
		if err != nil || b == nil {
			return err
		}
		if err := p.route(b); err != nil {
			return err
		}
	}
}

// route delivers or packs one input batch's rows and consumes b.
func (p *Producer) route(b *Batch) error {
	cb := b.Cols()
	if p.Route < 0 {
		all := selectedRows(cb, p.dIdx[0][:0])
		p.dIdx[0] = all
		lo, hi := 0, p.N
		if p.Route == RouteDeal {
			lo, hi = p.deal, p.deal+1
			p.deal = hi % p.N
		}
		var err error
		for d := lo; d < hi && err == nil; d++ {
			err = p.pack(d, cb, all)
		}
		b.Release()
		return err
	}
	var drop int
	p.hv, drop = routeHash(cb, p.Route, p.hv, p.dIdx, p.filters)
	p.dropped += drop
	for d, idx := range p.dIdx {
		if d == p.Src || len(idx) == 0 {
			continue
		}
		p.dIdx[d] = idx[:0]
		if err := p.pack(d, cb, idx); err != nil {
			b.Release()
			return err
		}
	}
	if p.Src < 0 || len(p.dIdx[p.Src]) == 0 {
		b.Release()
		return nil
	}
	b.KeepRows(p.dIdx[p.Src])
	p.dIdx[p.Src] = p.dIdx[p.Src][:0]
	return p.deliver(p.Src, b)
}

// pack appends the listed physical rows of cb to destination d's
// pending batch, delivering each batch that fills. Safe across cb's
// Release: headers are copied and string payloads are immutable.
func (p *Producer) pack(d int, cb *tuple.Columns, idxs []int32) error {
	for len(idxs) > 0 {
		pb := p.pend[d]
		if pb == nil {
			pb = NewColBatch(cb.NumCols())
			p.pend[d] = pb
		}
		take := min(len(idxs), DefaultBatchSize-pb.Len())
		pb.AppendColGather(cb, idxs[:take])
		idxs = idxs[take:]
		if pb.Full() {
			p.pend[d] = nil
			if err := p.deliver(d, pb); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver meters b and hands it to destination d: remote when the
// producing node is not the destination (or the stream has no home
// node), but never on one node, which has no network at all.
func (p *Producer) deliver(d int, b *Batch) error {
	if p.Meter != nil {
		remote := p.Src != d && p.N > 1
		bytes := 0
		if remote {
			bytes = BatchWireBytes(b)
		}
		p.Meter.AddExchangeAt(p.Src, d, b.Len(), bytes, remote)
	}
	return p.Deliver(d, b)
}

// selectedRows appends cb's selected physical rows to dst.
func selectedRows(cb *tuple.Columns, dst []int32) []int32 {
	if sel := cb.Sel(); sel != nil {
		return append(dst, sel...)
	}
	for i := 0; i < cb.Len(); i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// routeHash is the hash route. It hashes cb's key column into hv
// (returned, grown as needed) and appends each selected physical row to
// dIdx[d], d = Hash64(key) % len(dIdx), so equal keys always meet at
// the same destination. An unfiltered route (filters nil) sends a NULL
// key to destination 0: it can never match, so its destination only
// needs to be deterministic. A filtered route has one filter per
// destination (nil passes every key) and drops each row whose key is
// NULL or that its destination's filter rejects; it returns how many
// rows it dropped.
func routeHash(cb *tuple.Columns, key int, hv []uint64, dIdx [][]int32, filters []*KeyFilter) ([]uint64, int) {
	hv = cb.Hash64Column(key, hashPool.Fit(hv, cb.FullLen()))
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
