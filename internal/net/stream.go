// Per-query stream multiplexing and credit-based flow control. Every
// exchange stream is addressed (qid, exchange id, src fragment, dst
// fragment) and multiplexed over the single connection between its two
// processes. The sender holds a per-stream credit gate initialized to
// the window; each data frame spends its byte length and blocks when
// the window is exhausted. The receiver queues frames as they arrived —
// raw, so queued bytes are exactly the credited bytes — and the
// consuming operator decodes one into a columnar batch, recycles its
// wire buffer and only then returns the credit; so a slow consumer
// bounds the bytes buffered on BOTH ends to one window, which is the
// backpressure contract the flow-control test suite pins. Local
// (same-process) deliveries ride the same gates and queues with no
// encode/decode, so one bounded path serves both.
package net

import (
	"fmt"
	"sync"

	"adaptdb/internal/exec"
)

// NetError marks transport-layer failures: peer death, reset or
// stalled streams, injected faults. The coordinator retries attempts
// that fail with a NetError on a surviving replica; any other error
// surfaces to the caller unchanged.
type NetError struct {
	Msg  string
	Peer int // proc id, -1 when not attributable
}

func (e *NetError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("net: %s (proc %d)", e.Msg, e.Peer)
	}
	return "net: " + e.Msg
}

// IsNetError reports whether err (or anything it wraps) is a transport
// failure — the retryable class.
func IsNetError(err error) bool {
	for err != nil {
		if _, ok := err.(*NetError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// defaultWindow is the per-stream credit window when the setup does
// not override it. Small enough that a genuinely slow consumer exerts
// backpressure quickly, large enough to keep a healthy stream busy.
const defaultWindow = 256 << 10

// streamKey addresses one producer→consumer stream within an attempt
// (qid is implicit): the sender-side unit of credit accounting.
type streamKey struct {
	exch, src, dst int
}

// qkey addresses one consumer inlet: every producer of exchange exch
// delivering to fragment dst lands in the same queue (the consuming
// operator drains one merged stream, as the simulated exchOut does).
type qkey struct {
	exch, dst int
}

// rootKey is the coordinator's one inlet. A plan has exactly one
// gather, so every stream toward destination -1 lands there whatever
// its exchange id: the coordinator consumes it without compiling the
// plan that numbers the exchanges.
var rootKey = qkey{exch: -1, dst: -1}

// creditGate is a sender-side byte window for one stream.
type creditGate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	avail int
	max   int
	err   error
}

func newCreditGate(window int) *creditGate {
	g := &creditGate{avail: window, max: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until n bytes of window are available (a frame larger
// than the whole window waits for the window to be fully idle, then
// overdraws — oversize frames still flow, one at a time).
func (g *creditGate) acquire(n int) error {
	if n > g.max {
		n = g.max
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.avail < n && g.err == nil {
		g.cond.Wait()
	}
	if g.err != nil {
		return g.err
	}
	g.avail -= n
	return nil
}

func (g *creditGate) grant(n int) {
	g.mu.Lock()
	g.avail += n
	if g.avail > g.max {
		g.avail = g.max
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *creditGate) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// inItem is one delivery awaiting its consumer: a batch handed over
// in-process, or a remote run frame still undecoded in the pooled wire
// buffer it was read into. Whoever removes an item from its queue owns
// it: next consumes it, discard drops it, and either way the buffer goes
// back to the pool and the credit to the producer exactly once.
type inItem struct {
	b     *exec.Batch // local delivery; nil for a remote one
	buf   *frameBuf   // remote delivery: the buffer frame points into
	frame []byte
	bytes int // credit to return on consumption
	from  int // producing proc; -1 for a local delivery
	key   streamKey
}

// recvQueue is the receiver side of one stream: deliveries from every
// producing fragment of the exchange, the per-producer EOS set, and the
// failure latch. Buffering is bounded by the senders' credit windows,
// never by this queue.
type recvQueue struct {
	at     *attempt
	key    qkey
	mu     sync.Mutex
	cond   *sync.Cond
	items  []inItem // items[head:] are queued, oldest first
	head   int
	eos    map[int]bool
	expect int // producer count; -1 until the local compile registers it
	err    error
	closed bool
}

func newRecvQueue(at *attempt, key qkey) *recvQueue {
	q := &recvQueue{at: at, key: key, eos: make(map[int]bool), expect: -1}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push delivers one item. A closed or failed queue drops it and returns
// the credit immediately so the producer never wedges.
func (q *recvQueue) push(it inItem) {
	q.mu.Lock()
	if q.closed || q.err != nil {
		q.mu.Unlock()
		q.at.discard(it)
		return
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Reuse the popped slots before growing: a queue that never quite
		// drains must not drag its consumed prefix along.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *recvQueue) eosFrom(src int) {
	q.mu.Lock()
	q.eos[src] = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *recvQueue) setExpect(n int) {
	q.mu.Lock()
	q.expect = n
	q.cond.Broadcast()
	q.mu.Unlock()
}

// takeAll empties the queue for a caller (holding q.mu) that just moved
// it to a terminal state, and wakes every waiter to observe that state.
// The caller discards the returned items after unlocking.
func (q *recvQueue) takeAll() []inItem {
	items := q.items[q.head:]
	q.items, q.head = nil, 0
	q.cond.Broadcast()
	return items
}

// fail latches the stream error, dropping queued deliveries — credit
// granted, wire buffers recycled — so no sender stays blocked.
func (q *recvQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	items := q.takeAll()
	q.mu.Unlock()
	for _, it := range items {
		q.at.discard(it)
	}
}

// next blocks for the next batch: (nil, nil) on clean exhaustion. A
// remote frame is decoded here, on the consumer's goroutine, straight
// into a pooled columnar batch; its wire buffer is recycled as soon as
// the vectors are filled, and only then does the credit go back.
func (q *recvQueue) next() (*exec.Batch, error) {
	q.mu.Lock()
	for {
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return nil, err
		}
		if q.head < len(q.items) {
			it := q.items[q.head]
			q.items[q.head] = inItem{} // the array must not pin what was consumed
			if q.head++; q.head == len(q.items) {
				q.items, q.head = q.items[:0], 0
			}
			q.mu.Unlock()
			b, err := it.b, error(nil)
			if it.buf != nil {
				b, err = exec.DecodeColBatch(it.frame)
				putFrameBuf(it.buf)
			}
			q.at.grantCredit(it)
			if err != nil {
				return nil, fmt.Errorf("net: stream (%d,%d→%d): %w", it.key.exch, it.key.src, it.key.dst, err)
			}
			return b, nil
		}
		if q.expect >= 0 && len(q.eos) >= q.expect {
			q.mu.Unlock()
			return nil, nil
		}
		q.cond.Wait()
	}
}

// close marks the consumer gone: queued and future deliveries are
// dropped with their credit returned.
func (q *recvQueue) close() {
	q.mu.Lock()
	q.closed = true
	items := q.takeAll()
	q.mu.Unlock()
	for _, it := range items {
		q.at.discard(it)
	}
}

// recvOp adapts a recvQueue to the exec.Operator contract — what a
// consuming plan fragment (or the coordinator's gather) drains. An
// exchange output (x set) is an exec.FilterSink for its fragment dst.
type recvOp struct {
	q       *recvQueue
	x       *netExch // nil for the coordinator's gather
	dst     int
	pubOnce sync.Once
}

func (o *recvOp) Open() error { return nil }

func (o *recvOp) Next() (*exec.Batch, error) { return o.q.next() }

func (o *recvOp) Filtered() bool { return o.x != nil && o.x.filtered }

func (o *recvOp) PublishFilter(f *exec.KeyFilter) {
	if o.Filtered() {
		o.pubOnce.Do(func() { o.x.publishFilter(o.dst, f) })
	}
}

func (o *recvOp) Close() error {
	// A consumer that leaves without a filter must not hold the
	// producers, as on the simulated fabric.
	o.PublishFilter(nil)
	o.q.close()
	return nil
}

// attempt is one process's runtime state for one query attempt: the
// streams it consumes (queues), the streams it produces (gates), and
// the cancellation latch. Both the coordinator and every worker hold
// one per active qid.
type attempt struct {
	ep     *endpoint
	qid    uint64
	mu     sync.Mutex
	queues map[qkey]*recvQueue
	gates  map[streamKey]*creditGate
	// filters holds the join filters published for each filtered
	// exchange one of this process's pumps produces, by exchange id.
	filters map[int]*exec.KeyFilters
	failed  error
	done    chan struct{} // closed on fail or finish
	doneMu  sync.Once
	// peers are the processes the attempt exchanges with, nil until its
	// dispatch is known; guarded by ep.mu (attemptWith, peerDied).
	peers []int
}

func newAttempt(ep *endpoint, qid uint64) *attempt {
	return &attempt{
		ep:      ep,
		qid:     qid,
		queues:  make(map[qkey]*recvQueue),
		gates:   make(map[streamKey]*creditGate),
		filters: make(map[int]*exec.KeyFilters),
		done:    make(chan struct{}),
	}
}

func (at *attempt) queueFor(key qkey) *recvQueue {
	if key.dst < 0 {
		key = rootKey
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	q := at.queues[key]
	if q == nil {
		q = newRecvQueue(at, key)
		at.queues[key] = q
		if at.failed != nil {
			q.err = at.failed
		}
	}
	return q
}

// root is the receiving end of the root gather over n fragments.
func (at *attempt) root(n int) exec.Operator {
	q := at.queueFor(rootKey)
	q.setExpect(n)
	return &recvOp{q: q}
}

func (at *attempt) gateFor(key streamKey) *creditGate {
	at.mu.Lock()
	defer at.mu.Unlock()
	g := at.gates[key]
	if g == nil {
		g = newCreditGate(at.ep.window)
		at.gates[key] = g
		if at.failed != nil {
			g.err = at.failed
		}
	}
	return g
}

// filtersFor returns the meeting point of filtered exchange exch's n
// destination filters, created on first sight: a filter frame can
// arrive before the local compile registers the exchange's pumps.
func (at *attempt) filtersFor(exch, n int) *exec.KeyFilters {
	at.mu.Lock()
	defer at.mu.Unlock()
	s := at.filters[exch]
	if s == nil {
		s = exec.NewKeyFilters(n)
		at.filters[exch] = s
	}
	return s
}

// grantCredit returns a consumed item's window bytes to its producer:
// directly for a local delivery, as a credit frame for a remote one.
func (at *attempt) grantCredit(it inItem) {
	if it.bytes <= 0 {
		return
	}
	if it.from < 0 {
		at.gateFor(it.key).grant(it.bytes)
		return
	}
	at.ep.sendCredit(it.from, at.qid, it.key, it.bytes)
}

// discard drops an item nobody will consume: the batch or the wire
// buffer goes back to its pool, the credit to the producer.
func (at *attempt) discard(it inItem) {
	if it.buf != nil {
		putFrameBuf(it.buf)
	} else {
		it.b.Release()
	}
	at.grantCredit(it)
}

// fail cancels the whole attempt in this process: every queue and gate
// unblocks with err, pumps and consumers wind down.
func (at *attempt) fail(err error) {
	at.mu.Lock()
	if at.failed == nil {
		at.failed = err
	}
	queues := make([]*recvQueue, 0, len(at.queues))
	for _, q := range at.queues {
		queues = append(queues, q)
	}
	gates := make([]*creditGate, 0, len(at.gates))
	for _, g := range at.gates {
		gates = append(gates, g)
	}
	at.mu.Unlock()
	for _, q := range queues {
		q.fail(err)
	}
	for _, g := range gates {
		g.fail(err)
	}
	at.doneMu.Do(func() { close(at.done) })
}

func (at *attempt) failure() error {
	at.mu.Lock()
	defer at.mu.Unlock()
	return at.failed
}
