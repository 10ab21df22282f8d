// endpoint is the per-process networking runtime shared by the
// coordinator and the workers: the connection per peer process, the
// active attempt per qid, and the demux that routes stream frames into
// attempt queues. The demux never blocks and never decodes — a queue
// holds raw frames, at most one credit window of bytes per producing
// stream — so a connection's reader loop is always able to drain
// control traffic even when a consumer is slow.
package net

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"adaptdb/internal/exec"
)

type endpoint struct {
	proc   int // my proc id; 0 is the coordinator
	window int

	mu    sync.Mutex
	peers map[int]*conn
	atts  map[uint64]*attempt
	tombs map[uint64]bool // finished/aborted qids: late frames dropped
}

func newEndpoint(proc, window int) *endpoint {
	if window <= 0 {
		window = defaultWindow
	}
	return &endpoint{
		proc:   proc,
		window: window,
		peers:  make(map[int]*conn),
		atts:   make(map[uint64]*attempt),
		tombs:  make(map[uint64]bool),
	}
}

func (ep *endpoint) setPeer(proc int, c *conn) {
	ep.mu.Lock()
	ep.peers[proc] = c
	ep.mu.Unlock()
}

func (ep *endpoint) peerConn(proc int) *conn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	c := ep.peers[proc]
	if c != nil && c.isDead() {
		return nil
	}
	return c
}

// attemptFor returns the attempt runtime for qid, creating a shell on
// first sight (a data frame can outrun the query message on another
// connection). Tombstoned qids return nil: the attempt is over and its
// frames are discarded.
func (ep *endpoint) attemptFor(qid uint64) *attempt {
	return ep.attemptWith(qid, nil)
}

// attemptWith is attemptFor that, for non-nil peers, also records the
// processes the attempt exchanges with (from its dispatch), so that
// peerDied leaves it running when any other process dies.
func (ep *endpoint) attemptWith(qid uint64, peers []int) *attempt {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.tombs[qid] {
		return nil
	}
	at := ep.atts[qid]
	if at == nil {
		at = newAttempt(ep, qid)
		ep.atts[qid] = at
	}
	if peers != nil {
		at.peers = peers
	}
	return at
}

// retire tombstones a qid and fails its attempt (idempotent), so late
// frames and blocked senders resolve.
func (ep *endpoint) retire(qid uint64, err error) {
	ep.mu.Lock()
	ep.tombs[qid] = true
	at := ep.atts[qid]
	delete(ep.atts, qid)
	ep.mu.Unlock()
	if at != nil {
		if err == nil {
			err = fmt.Errorf("net: attempt %d retired", qid)
		}
		at.fail(err)
	}
}

// peerDied fails every active attempt that exchanges with proc, or
// whose peers are not known yet: it cannot complete. An attempt
// dispatched without proc — a failover retry — runs on; a death noticed
// late must not fail the retry that already left the dead worker out.
func (ep *endpoint) peerDied(proc int, cause error) {
	ep.mu.Lock()
	if c := ep.peers[proc]; c != nil && c.isDead() {
		delete(ep.peers, proc)
	}
	atts := make([]*attempt, 0, len(ep.atts))
	for _, at := range ep.atts {
		if at.peers == nil || slices.Contains(at.peers, proc) {
			atts = append(atts, at)
		}
	}
	ep.mu.Unlock()
	err := &NetError{Msg: fmt.Sprintf("peer died: %v", cause), Peer: proc}
	for _, at := range atts {
		at.fail(err)
	}
}

// sendCredit returns window bytes to a remote producer (best effort —
// if the connection is gone the producer's gates are failing anyway).
func (ep *endpoint) sendCredit(proc int, qid uint64, key streamKey, bytes int) {
	c := ep.peerConn(proc)
	if c == nil {
		return
	}
	p := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	p = binary.AppendUvarint(p, uint64(bytes))
	c.writeFrame(msgCredit, p)
}

// demux returns a connection's frame handler for conn.serve: stream
// frames (data/eos/credit/filter) route into the owning attempt,
// everything else goes to the process's control handler.
func (ep *endpoint) demux(from *conn, control func(typ byte, payload []byte) error) func(*frameBuf) (bool, error) {
	return func(fb *frameBuf) (bool, error) {
		switch fb.typ() {
		case msgData, msgEOS, msgCredit, msgFilter:
			return ep.handleStreamFrame(from, fb)
		}
		return false, control(fb.typ(), fb.payload())
	}
}

// handleStreamFrame demuxes one stream frame into the owning attempt,
// reporting whether it kept fb. A data frame is queued as it arrived —
// raw, in its wire buffer — for the consuming fragment to decode, so the
// reader goroutine only ever parses a stream header. Unknown
// (tombstoned) qids are dropped silently.
func (ep *endpoint) handleStreamFrame(from *conn, fb *frameBuf) (kept bool, err error) {
	h, rest, err := decodeStreamHdr(fb.payload())
	if err != nil {
		return false, err
	}
	switch fb.typ() {
	case msgData:
		at := ep.attemptFor(h.qid)
		if at == nil {
			return false, nil
		}
		at.queueFor(qkey{h.exch, h.dst}).push(inItem{
			buf:   fb,
			frame: rest,
			bytes: len(rest),
			from:  from.peer,
			key:   streamKey{h.exch, h.src, h.dst},
		})
		return true, nil
	case msgEOS:
		if at := ep.attemptFor(h.qid); at != nil {
			at.queueFor(qkey{h.exch, h.dst}).eosFrom(h.src)
		}
		return false, nil
	case msgFilter:
		// Header dst is the publishing join's fragment; then the
		// exchange's destination count and the filter.
		n, k := binary.Uvarint(rest)
		if k <= 0 || n == 0 || n > 1<<16 {
			return false, fmt.Errorf("net: filter frame: bad destination count")
		}
		f, err := exec.DecodeKeyFilter(rest[k:])
		if err != nil {
			return false, fmt.Errorf("net: filter frame: %w", err)
		}
		if at := ep.attemptFor(h.qid); at != nil {
			at.filtersFor(h.exch, int(n)).Publish(h.dst, f)
		}
		return false, nil
	case msgCredit:
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			return false, fmt.Errorf("net: credit frame: bad byte count")
		}
		ep.mu.Lock()
		at := ep.atts[h.qid] // no shell for credits: unknown qid is stale
		ep.mu.Unlock()
		if at != nil {
			at.gateFor(streamKey{h.exch, h.src, h.dst}).grant(int(n))
		}
		return false, nil
	}
	return false, fmt.Errorf("net: unexpected stream frame %s", msgName(fb.typ()))
}
