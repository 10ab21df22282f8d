// Package net is the TCP execution fabric: the multi-process twin of
// the in-process simulated NodeSet. W worker processes each hold a full
// deterministic replica of the store (same generator seed, same load
// order, same adaptation sequence), so every worker compiles the
// identical distributed plan and instantiates only the plan fragments
// it hosts. The coordinator neither adapts nor compiles: it dispatches
// the query, drains the root gather (under a grouped spec's group-by)
// and merges what the workers report. Exchange rows travel as
// length-prefixed frames (the tuple run-frame codec) over one TCP
// connection per process pair, multiplexed per query and per stream,
// under credit-based flow control; when a worker dies mid-query the
// coordinator reassigns its fragments to a surviving replica holder
// and retries, and the query still returns the correct result.
//
// This file is the wire layer: framing, message types, and the conn
// wrapper every higher layer writes through — one writer mutex per
// connection, a demux reader loop, keepalive pings with a read
// deadline so a stalled peer becomes a dead connection, and the fault-
// injection arm point the test wall drives.
package net

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
)

// Frame types. Every frame is [uint32 LE length][type byte][payload];
// length counts the type byte plus payload.
const (
	msgHello  byte = 1  // worker → coordinator / mesh peer: identify
	msgSetup  byte = 2  // coordinator → worker: dataset + exec config
	msgReady  byte = 3  // worker → coordinator: replica built, mesh up
	msgQuery  byte = 4  // coordinator → worker: dispatch one attempt
	msgAbort  byte = 5  // coordinator → worker: cancel an attempt
	msgData   byte = 6  // stream frame: header + tuple run frame
	msgEOS    byte = 7  // stream end from one producer
	msgCredit byte = 8  // receiver returns window bytes to a producer
	msgQErr   byte = 9  // worker → coordinator: attempt failed
	msgQDone  byte = 10 // worker → coordinator: attempt done + counters
	msgPing   byte = 11
	msgPong   byte = 12
	msgFilter byte = 13 // a join's build-key filter for a probe exchange's producers
)

// maxWireFrame bounds a single frame; a corrupt length prefix larger
// than this kills the connection instead of driving an allocation.
const maxWireFrame = 1 << 28

// msgName renders a frame type for errors and fault plans.
func msgName(t byte) string {
	switch t {
	case msgHello:
		return "hello"
	case msgSetup:
		return "setup"
	case msgReady:
		return "ready"
	case msgQuery:
		return "query"
	case msgAbort:
		return "abort"
	case msgData:
		return "data"
	case msgEOS:
		return "eos"
	case msgCredit:
		return "credit"
	case msgQErr:
		return "qerr"
	case msgQDone:
		return "qdone"
	case msgPing:
		return "ping"
	case msgPong:
		return "pong"
	case msgFilter:
		return "filter"
	}
	return fmt.Sprintf("msg(%d)", t)
}

// helloMsg identifies the dialing process. Addr is the worker's mesh
// listen address (empty on mesh connections and from the coordinator).
type helloMsg struct {
	Proc int
	Addr string
}

// ExecConfig is the execution configuration every process must share
// for deterministic replicated compilation: any divergence (a different
// cost model, budget, or optimizer seed) would make two processes pick
// different join strategies for the same query and mis-wire the
// exchange streams.
type ExecConfig struct {
	Model        cluster.CostModel
	Optimizer    OptimizerConfig
	BudgetBlocks int
	MemBudget    int64
}

// OptimizerConfig mirrors optimizer.Config field-for-field so the setup
// message stays serializable without importing the optimizer package
// into the wire layer's JSON surface.
type OptimizerConfig struct {
	Mode       int
	WindowSize int
	FMin       int
	Amoeba     bool
	Seed       int64
}

// setupMsg tells a worker how to become a replica: which dataset to
// build (via the process-local registry), the mesh addresses of its
// peers, and the shared execution configuration.
type setupMsg struct {
	N           int    // plan fragments = store nodes
	Dataset     string // registry name
	Params      json.RawMessage
	Procs       map[int]string // proc id → mesh address
	Exec        ExecConfig
	Window      int   // credit window bytes per stream
	KeepAliveMs int64 // keepalive interval; 0 disables
	// SpillRoot is where the worker makes its spill directory: the
	// coordinator's temp dir, where a coordinator executor without a
	// SpillDir spills too, so a worker never reads its own environment.
	SpillRoot string
}

// linkRec is one per-link traffic record in a qdone message (a slice,
// not a map: JSON objects cannot key on structs).
type linkRec struct {
	Src, Dst           int
	Rows, Bytes, Nanos float64
}

func linksToRecs(s cluster.LinkStats) []linkRec {
	if len(s) == 0 {
		return nil
	}
	out := make([]linkRec, 0, len(s))
	for _, k := range s.Keys() {
		st := s[k]
		out = append(out, linkRec{Src: k.Src, Dst: k.Dst, Rows: st.Rows, Bytes: st.Bytes, Nanos: st.Nanos})
	}
	return out
}

func recsToLinks(recs []linkRec) cluster.LinkStats {
	if len(recs) == 0 {
		return nil
	}
	s := make(cluster.LinkStats, len(recs))
	for _, r := range recs {
		s[cluster.LinkKey{Src: r.Src, Dst: r.Dst}] = cluster.LinkStat{Rows: r.Rows, Bytes: r.Bytes, Nanos: r.Nanos}
	}
	return s
}

// weightRec ships one measured link weight with a query so every
// process compiles with identical link pricing.
type weightRec struct {
	Src, Dst int
	W        float64
}

func weightsToRecs(w cluster.LinkWeights) []weightRec {
	if len(w) == 0 {
		return nil
	}
	out := make([]weightRec, 0, len(w))
	for k, v := range w {
		out = append(out, weightRec{Src: k.Src, Dst: k.Dst, W: v})
	}
	return out
}

func recsToWeights(recs []weightRec) cluster.LinkWeights {
	if len(recs) == 0 {
		return nil
	}
	w := make(cluster.LinkWeights, len(recs))
	for _, r := range recs {
		w[cluster.LinkKey{Src: r.Src, Dst: r.Dst}] = r.W
	}
	return w
}

// queryMsg dispatches one attempt of one query. Assign maps plan
// fragment → hosting proc; Seq is the query's position in the session
// stream (adaptation replays once per seq, so a retry of the same seq
// never re-adapts). Weights carry the coordinator's measured link
// weights so replicated compiles price shuffles identically.
type queryMsg struct {
	QID     uint64
	Seq     int
	Spec    query.Spec
	Assign  []int
	Weights []weightRec
	Fault   *FaultPlan
}

type abortMsg struct {
	QID uint64
}

// qerrMsg reports a failed attempt. Net marks transport-layer failures
// (peer death, reset streams) — the class the coordinator retries on a
// surviving replica; non-net failures surface to the caller as-is.
// Dead names the worker whose death (or dead link: links are never
// re-dialed) failed the attempt, 0 when none is known.
type qerrMsg struct {
	QID  uint64
	Msg  string
	Net  bool
	Dead int `json:",omitempty"`
}

// qdoneMsg reports a completed attempt: the worker's metered execution
// counters and per-link traffic, its adaptation record for the query's
// seq, and its compile's join report and per-operator stats, filled in
// by the fragments it hosted.
type qdoneMsg struct {
	QID      uint64
	Counters cluster.Counters
	Links    []linkRec
	Adapt    adaptRecord
	Report   *planner.Report
	Ops      []exec.OpStats
}

// adaptRecord is what one replica's adaptation did for one stream seq:
// the optimizer's step report and the migration I/O it metered. Every
// replica applies the same decision to the same layout, so every
// worker's record for a seq is identical, and the coordinator charges
// one of them to the query.
type adaptRecord struct {
	Seq  int
	Step optimizer.StepReport
	IO   cluster.Counters
}

// streamHdr addresses one exchange stream within a query: the
// deterministic per-compile exchange id, the producing fragment (-1 on
// a filter frame, which no fragment produces), and the consuming
// fragment (-1 for a gather back to the coordinator).
type streamHdr struct {
	qid  uint64
	exch int
	src  int
	dst  int
}

// maxStreamHdrLen bounds an encoded streamHdr: four varints.
const maxStreamHdrLen = 4 * binary.MaxVarintLen64

func appendStreamHdr(b []byte, h streamHdr) []byte {
	b = binary.AppendUvarint(b, h.qid)
	b = binary.AppendUvarint(b, uint64(h.exch))
	b = binary.AppendVarint(b, int64(h.src))
	b = binary.AppendVarint(b, int64(h.dst))
	return b
}

func decodeStreamHdr(b []byte) (streamHdr, []byte, error) {
	var h streamHdr
	qid, n := binary.Uvarint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("net: stream header: bad qid")
	}
	b = b[n:]
	exch, n := binary.Uvarint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("net: stream header: bad exchange id")
	}
	b = b[n:]
	src, n := binary.Varint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("net: stream header: bad src")
	}
	b = b[n:]
	dst, n := binary.Varint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("net: stream header: bad dst")
	}
	b = b[n:]
	h.qid, h.exch, h.src, h.dst = qid, int(exch), int(src), int(dst)
	return h, b, nil
}

// creditMsg payload: stream header + uvarint byte count.

// frameHdrLen is the wire prefix: uint32 length + type byte.
const frameHdrLen = 5

// frameBuf is one pooled wire buffer holding a received frame (type
// byte + payload). A connection's reader reads every frame into one and
// reuses it for the next — except a data frame, which leaves with its
// buffer: it is queued undecoded, so a stream's queue holds exactly the
// bytes its credit window paid for, and whoever takes the item off the
// queue (the consumer after decoding, or fail/close when dropping it)
// puts the buffer back.
type frameBuf struct{ b []byte }

func (fb *frameBuf) typ() byte       { return fb.b[0] }
func (fb *frameBuf) payload() []byte { return fb.b[1:] }

var (
	frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}
	// frameBufsOut counts buffers checked out of frameBufs: readers hold
	// one each, queued data frames one each, so it returns to zero when
	// every connection is closed and every queue drained or dropped.
	frameBufsOut atomic.Int64
)

func getFrameBuf() *frameBuf {
	frameBufsOut.Add(1)
	return frameBufs.Get().(*frameBuf)
}

func putFrameBuf(fb *frameBuf) {
	frameBufsOut.Add(-1)
	frameBufs.Put(fb)
}

// conn wraps one TCP connection to a peer process: a writer mutex (any
// goroutine may send), a reader loop that demuxes frames into the
// endpoint, a keepalive pinger, and the fault arm point.
type conn struct {
	nc   gonet.Conn
	peer int // remote proc id; -1 until hello

	wmu    sync.Mutex
	wbuf   []byte // reused frame assembly buffer
	closed sync.Once
	dead   chan struct{}
	err    error // first fatal error, set before dead closes
	errMu  sync.Mutex

	// ka is the keepalive interval in nanoseconds; 0 disables read
	// deadlines. Atomic because the coordinator enables it only once a
	// worker reports ready — a worker is legitimately silent while it
	// builds its replica, and a deadline during the build would declare
	// a healthy worker dead.
	ka       atomic.Int64
	pingOnce sync.Once

	faultMu sync.Mutex
	fault   *FaultPlan
	faultN  int
	stalled bool
	onKill  func() // kill-fault override for in-process workers
}

func newConn(nc gonet.Conn, ka time.Duration) *conn {
	c := &conn{nc: nc, peer: -1, dead: make(chan struct{})}
	if ka > 0 {
		c.ka.Store(int64(ka))
	}
	return c
}

func (c *conn) kaDur() time.Duration { return time.Duration(c.ka.Load()) }

// enableKeepAlive turns on the ping loop and read deadlines (idempotent;
// no-op for a non-positive interval).
func (c *conn) enableKeepAlive(d time.Duration) {
	if d <= 0 {
		return
	}
	c.ka.Store(int64(d))
	c.pingOnce.Do(func() { go c.pinger() })
}

// die records the first fatal error and closes the socket exactly once.
func (c *conn) die(err error) {
	c.errMu.Lock()
	if c.err == nil && err != nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.closed.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

func (c *conn) deadErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("net: connection to proc %d closed", c.peer)
}

func (c *conn) isDead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// writeFrame sends one frame, assembled in the connection's reused
// buffer.
func (c *conn) writeFrame(typ byte, payload []byte) error {
	return c.write(typ, nil, payload)
}

// writeReserved sends b[frameHdrLen:] as one frame's payload straight
// from the caller's buffer: its first frameHdrLen bytes are reserved for
// the prefix, stamped here, so a pump's encoded frame reaches the socket
// without a second copy.
func (c *conn) writeReserved(typ byte, b []byte) error {
	return c.write(typ, b, nil)
}

// write is the fault arm point: an armed fault matching typ fires here
// (reset, partial write, stall, or process kill) before or instead of
// the real write.
func (c *conn) write(typ byte, b, payload []byte) error {
	if c.isDead() {
		return c.deadErr()
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.checkFault(typ) {
		if c.isDead() {
			return c.deadErr() // reset, partial write or kill: the write failed
		}
		// Stalled: swallow the write. The peer's read deadline will
		// declare this connection dead; so will ours.
		return nil
	}
	if c.isDead() {
		return c.deadErr()
	}
	if b == nil {
		var prefix [frameHdrLen]byte
		b = append(append(c.wbuf[:0], prefix[:]...), payload...)
		c.wbuf = b[:0]
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	b[4] = typ
	if _, err := c.nc.Write(b); err != nil {
		c.die(fmt.Errorf("net: write to proc %d: %w", c.peer, err))
		return c.deadErr()
	}
	return nil
}

// writeJSON sends a JSON-encoded control frame.
func (c *conn) writeJSON(typ byte, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("net: encode %s: %w", msgName(typ), err)
	}
	return c.writeFrame(typ, b)
}

// readFrame reads one frame into fb under the keepalive deadline.
func (c *conn) readFrame(fb *frameBuf) error {
	if d := c.kaDur(); d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(3 * d))
	} else {
		c.nc.SetReadDeadline(time.Time{})
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.nc, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxWireFrame {
		return fmt.Errorf("net: implausible frame length %d", n)
	}
	if cap(fb.b) < int(n) {
		fb.b = make([]byte, n)
	}
	fb.b = fb.b[:n]
	_, err := io.ReadFull(c.nc, fb.b)
	return err
}

// serve runs the reader loop, dispatching every frame to handle until
// the connection dies. handle reports whether it kept the frame's buffer
// (a queued data frame); the loop then reads on into a fresh one. Pings
// are answered here; pongs (and every other frame) refresh the read
// deadline implicitly. onDead runs once with the fatal error.
func (c *conn) serve(handle func(fb *frameBuf) (kept bool, err error), onDead func(error)) {
	c.enableKeepAlive(c.kaDur())
	fb := getFrameBuf()
	for {
		if err := c.readFrame(fb); err != nil {
			c.die(fmt.Errorf("net: read from proc %d: %w", c.peer, err))
			break
		}
		if c.stallActive() {
			// A stalled connection reads nothing more: drop the frame and
			// wait for the deadline to declare the conn dead.
			continue
		}
		switch fb.typ() {
		case msgPing:
			c.writeFrame(msgPong, nil)
			continue
		case msgPong:
			continue
		}
		kept, err := handle(fb)
		if kept {
			fb = getFrameBuf()
		}
		if err != nil {
			c.die(err)
			break
		}
	}
	putFrameBuf(fb)
	if onDead != nil {
		onDead(c.deadErr())
	}
}

func (c *conn) pinger() {
	t := time.NewTicker(c.kaDur())
	defer t.Stop()
	for {
		select {
		case <-c.dead:
			return
		case <-t.C:
			if c.stallActive() {
				continue // a stalled conn stops pinging so peers notice
			}
			if c.writeFrame(msgPing, nil) != nil {
				return
			}
		}
	}
}
