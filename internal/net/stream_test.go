// Flow-control unit suite: the credit gate's window arithmetic, and —
// over a real socket pair — the backpressure contract (a slow consumer
// bounds the sender's outstanding bytes to the credit window), the
// cancellation contract (failing an attempt unblocks a sender stuck in
// acquire and a consumer stuck in next, on both ends, leaking nothing —
// no goroutine, no pooled wire buffer, no budgeted byte), and the
// receive path's shape: frames off a socket reach their consumer as
// columnar batches.
package net

import (
	"context"
	"errors"
	"fmt"
	gonet "net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func TestCreditGateWindow(t *testing.T) {
	g := newCreditGate(100)
	if err := g.acquire(60); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(40); err != nil {
		t.Fatal(err)
	}
	// Window exhausted: the next acquire must block until a grant.
	done := make(chan error, 1)
	go func() { done <- g.acquire(30) }()
	select {
	case <-done:
		t.Fatal("acquire returned with no window available")
	case <-time.After(20 * time.Millisecond):
	}
	g.grant(30)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCreditGateOversizeClamps(t *testing.T) {
	// A frame larger than the whole window must still flow: acquire
	// clamps to the window size and overdraws once it is fully idle.
	g := newCreditGate(100)
	if err := g.acquire(1000); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.acquire(1000) }()
	select {
	case <-done:
		t.Fatal("second oversize acquire should wait for a full window")
	case <-time.After(20 * time.Millisecond):
	}
	g.grant(1000) // grant is capped at max
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCreditGateFailUnblocks(t *testing.T) {
	g := newCreditGate(10)
	if err := g.acquire(10); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.acquire(10) }()
	boom := errors.New("boom")
	g.fail(boom)
	if err := <-done; err != boom {
		t.Fatalf("blocked acquire returned %v, want the failure", err)
	}
	if err := g.acquire(1); err != boom {
		t.Fatalf("post-failure acquire returned %v, want the failure", err)
	}
}

// pairEndpoints joins two endpoints with one real TCP connection, each
// serving stream frames into its own attempt table — the minimal
// producer/consumer topology of the full fabric.
func pairEndpoints(t *testing.T, window int) (*endpoint, *endpoint, func()) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan gonet.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	ncA, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ncB := <-accepted
	ln.Close()

	epA, epB := newEndpoint(0, window), newEndpoint(1, window)
	ca, cb := newConn(ncA, 0), newConn(ncB, 0)
	ca.peer, cb.peer = 1, 0
	epA.setPeer(1, ca)
	epB.setPeer(0, cb)
	noControl := func(typ byte, _ []byte) error { return fmt.Errorf("unexpected control frame %s", msgName(typ)) }
	go ca.serve(epA.demux(ca, noControl), func(err error) { epA.peerDied(1, err) })
	go cb.serve(epB.demux(cb, noControl), func(err error) { epB.peerDied(0, err) })
	closer := func() {
		ca.die(errors.New("test over"))
		cb.die(errors.New("test over"))
	}
	t.Cleanup(closer) // backstop for Fatal exits
	return epA, epB, closer
}

func testFrame(t *testing.T, rows int) []byte {
	t.Helper()
	tuples := make([]tuple.Tuple, rows)
	for i := range tuples {
		tuples[i] = tuple.Tuple{value.NewInt(int64(i)), value.NewString("backpressure-payload")}
	}
	frame, err := tuple.AppendFrame(nil, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBackpressureBoundsSender pins the flow-control contract: with a
// deliberately slow consumer, the producer can never be more than one
// credit window of bytes ahead of consumption.
func TestBackpressureBoundsSender(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	frame := testFrame(t, 32)
	window := 4 * len(frame) // fits 4 frames in flight
	epA, epB, closePair := pairEndpoints(t, window)
	defer closePair() // runs before the leak check above

	const qid, nFrames = 1, 40
	key := streamKey{exch: 7, src: 1, dst: 0}
	hdr := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	payload := append(append([]byte(nil), hdr...), frame...)

	atB := epB.attemptFor(qid) // producer side
	atA := epA.attemptFor(qid) // consumer side
	q := atA.queueFor(qkey{key.exch, key.dst})
	q.setExpect(1)

	var sent atomic.Int64 // bytes acquired by the producer
	sendErr := make(chan error, 1)
	go func() {
		gate := atB.gateFor(key)
		c := epB.peerConn(0)
		for i := 0; i < nFrames; i++ {
			if err := gate.acquire(len(frame)); err != nil {
				sendErr <- err
				return
			}
			sent.Add(int64(len(frame)))
			if err := c.writeFrame(msgData, payload); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- c.writeFrame(msgEOS, hdr)
	}()

	var consumed int64
	batches := 0
	for {
		// The producer's acquired bytes can exceed consumption by at
		// most the window: credits only flow back on consumption.
		if ahead := sent.Load() - consumed; ahead > int64(window) {
			t.Fatalf("sender ran %d bytes ahead of the consumer; window is %d", ahead, window)
		}
		b, err := q.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		b.Release()
		consumed += int64(len(frame))
		batches++
		time.Sleep(2 * time.Millisecond) // the slow consumer
	}
	if batches != nFrames {
		t.Fatalf("consumed %d frames, want %d", batches, nFrames)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	epA.retire(qid, nil)
	epB.retire(qid, nil)
}

// TestCancelUnblocksBothEnds wedges a producer in acquire (window
// exhausted, nothing consumed) and a consumer in next (nothing left to
// read) and asserts that retiring the attempt releases both promptly.
func TestCancelUnblocksBothEnds(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	frame := testFrame(t, 32)
	window := len(frame) // one frame in flight, then the gate is shut
	epA, epB, closePair := pairEndpoints(t, window)
	defer closePair() // runs before the leak check above

	const qid = 9
	key := streamKey{exch: 3, src: 1, dst: 0}
	hdr := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	payload := append(append([]byte(nil), hdr...), frame...)

	atB := epB.attemptFor(qid)
	atA := epA.attemptFor(qid)

	sendErr := make(chan error, 1)
	go func() {
		gate := atB.gateFor(key)
		c := epB.peerConn(0)
		for {
			if err := gate.acquire(len(frame)); err != nil {
				sendErr <- err
				return
			}
			if err := c.writeFrame(msgData, payload); err != nil {
				sendErr <- err
				return
			}
		}
	}()

	// A consumer on a stream the producer will never finish.
	q := atA.queueFor(qkey{key.exch, key.dst})
	q.setExpect(1)
	recvErr := make(chan error, 1)
	go func() {
		for {
			b, err := q.next()
			if err != nil || b == nil {
				recvErr <- err
				return
			}
			// Do not consume further: leave the item queued so no credit
			// flows back and the producer wedges in acquire.
			b.Release()
			q.mu.Lock()
			q.cond.Wait() // parks until fail broadcasts
			q.mu.Unlock()
		}
	}()

	time.Sleep(50 * time.Millisecond) // let both ends wedge
	cancel := &NetError{Msg: "query canceled"}
	epA.retire(qid, cancel)
	epB.retire(qid, cancel)

	for _, ch := range []chan error{sendErr, recvErr} {
		select {
		case err := <-ch:
			if !IsNetError(err) {
				t.Fatalf("blocked end returned %v, want the cancellation NetError", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a blocked end did not unblock after retire")
		}
	}
}

// TestRecvQueuePopReleasesSlots pins the queue's storage discipline: a
// popped slot is zeroed (the backing array must not pin a consumed
// batch or wire buffer until the next reallocation), a drained queue
// rewinds to the start of its array, and a queue that never quite
// drains reuses its popped slots instead of growing past them.
func TestRecvQueuePopReleasesSlots(t *testing.T) {
	at := newAttempt(newEndpoint(0, 0), 1)
	q := at.queueFor(qkey{1, 0})
	q.setExpect(1)
	local := func() inItem { return inItem{b: exec.NewColBatch(0), from: -1} }
	for i := 0; i < 3; i++ {
		q.push(local())
	}
	for i := 0; i < 3; i++ {
		b, err := q.next()
		if err != nil || b == nil {
			t.Fatalf("pop %d: %v %v", i, b, err)
		}
		b.Release()
	}
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue did not rewind: head=%d len=%d", q.head, len(q.items))
	}
	for i, it := range q.items[:cap(q.items)] {
		if it.b != nil || it.buf != nil || it.frame != nil {
			t.Fatalf("slot %d still references a consumed item: %+v", i, it)
		}
	}
	// Steady state with one item always queued: the array must not grow.
	q.push(local())
	grown := cap(q.items)
	for i := 0; i < 10*grown; i++ {
		q.push(local())
		b, err := q.next()
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if cap(q.items) != grown {
		t.Fatalf("a never-empty queue grew its array from %d to %d slots", grown, cap(q.items))
	}
	q.close()
}

// shuffleEnd is one process's half of a two-process shuffle: a fabric
// over its endpoint with fragment i hosted by proc i.
func shuffleEnd(t *testing.T, ep *endpoint, qid uint64, mem int64) (*netFabric, *exec.Executor) {
	t.Helper()
	ex := exec.New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ex.Mem = exec.NewMemBudget(mem)
	ex.EnableNodes(0)
	f, err := newNetFabric(ep, ep.attemptFor(qid), ex, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return f, ex
}

// TestRemoteShuffleDeliversColumnar runs a real shuffle across the
// socket pair and pins the receive path's shape: every batch that
// crossed the wire arrives columnar — even though the producer drained a
// row source and shipped row-encoded frames — so the operators behind a
// socket run their vectorized loops and the boxing receive path cannot
// silently come back. Rows must arrive intact, exactly once.
func TestRemoteShuffleDeliversColumnar(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	epA, epB, closePair := pairEndpoints(t, 0)
	defer closePair()
	const qid = 5
	rows := make([]tuple.Tuple, 5000)
	wantAt0 := map[int64]string{}
	for i := range rows {
		k, s := value.NewInt(int64(i)), "payload-"+fmt.Sprint(i%17)
		rows[i] = tuple.Tuple{k, value.NewString(s), value.NewFloat(float64(i) / 4)}
		if k.Hash64()%2 == 0 {
			wantAt0[int64(i)] = s
		}
	}
	// Fragment 1 (proc 1) produces everything; fragment 0 (proc 0) only
	// consumes, so all it sees crossed the socket.
	fA, _ := shuffleEnd(t, epA, qid, 0)
	fB, _ := shuffleEnd(t, epB, qid, 0)
	outA := fA.Shuffle([]exec.Operator{exec.NewSource(nil), exec.NewSource(nil)}, 0).Output(0)
	outB := fB.Shuffle([]exec.Operator{exec.NewSource(nil), exec.NewSource(rows)}, 0).Output(1)
	fA.Run(context.Background())
	fB.Run(context.Background())
	localDone := make(chan error, 1)
	go func() { // fragment 1's own share stays in-process; drain it
		_, err := exec.Count(outB)
		localDone <- err
	}()

	if err := outA.Open(); err != nil {
		t.Fatal(err)
	}
	batches := 0
	for {
		b, err := outA.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		cb := b.Cols()
		if kind := cb.Col(0).Kind(); kind != value.Int || cb.Col(1).Kind() != value.String || cb.Col(2).Kind() != value.Float {
			t.Fatalf("batch %d decoded into untyped vectors (col 0 %v)", batches, kind)
		}
		for i := 0; i < cb.Len(); i++ {
			k := cb.Col(0).Ints()[i]
			if want, ok := wantAt0[k]; !ok || cb.Col(1).Str(i) != want || cb.Col(2).Floats()[i] != float64(k)/4 {
				t.Fatalf("key %d arrived wrong, twice, or at the wrong fragment", k)
			}
			delete(wantAt0, k)
		}
		batches++
		b.Release()
	}
	outA.Close()
	if len(wantAt0) != 0 || batches < 2 {
		t.Fatalf("%d rows never arrived (%d batches)", len(wantAt0), batches)
	}
	if err := <-localDone; err != nil {
		t.Fatal(err)
	}
	for _, f := range []*netFabric{fA, fB} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	epA.retire(qid, nil)
	epB.retire(qid, nil)
}

// TestCancelMidStreamReleasesEverything cancels an attempt while a join
// build is consuming a remote stream — frames queued raw on the
// consumer, more in flight, the producer parked on its credit gate, the
// build holding budget for every row it took — and asserts that all of
// it comes back: the join surfaces the cancellation, its MemBudget
// returns to zero, every pooled wire buffer is back in the pool (queued
// frames dropped by fail, late frames dropped at the tombstone, both
// readers' buffers at connection close), and no goroutine survives.
func TestCancelMidStreamReleasesEverything(t *testing.T) {
	exec.VerifyNoLeaks(t) // let earlier tests' readers return their buffers
	if out := frameBufsOut.Load(); out != 0 {
		t.Fatalf("%d wire buffers outstanding before the test", out)
	}
	frame := testFrame(t, 256)
	epA, epB, closePair := pairEndpoints(t, 4*len(frame))
	const qid = 11
	key := streamKey{exch: 2, src: 1, dst: 0}
	hdr := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	payload := append(append([]byte(nil), hdr...), frame...)

	atB := epB.attemptFor(qid)
	sendErr := make(chan error, 1)
	go func() { // a producer that never ends its stream
		gate := atB.gateFor(key)
		c := epB.peerConn(0)
		for {
			if err := gate.acquire(len(frame)); err != nil {
				sendErr <- err
				return
			}
			if err := c.writeFrame(msgData, payload); err != nil {
				sendErr <- err
				return
			}
		}
	}()

	ex := exec.New(dfs.NewStore(1, 1, 1), &cluster.Meter{})
	ex.Mem = exec.NewMemBudget(1 << 40)
	q := epA.attemptFor(qid).queueFor(qkey{key.exch, key.dst})
	q.setExpect(1)
	probe := exec.NewSource([]tuple.Tuple{{value.NewInt(1), value.NewString("probe")}})
	joinErr := make(chan error, 1)
	go func() {
		_, err := exec.Count(ex.JoinOp(&recvOp{q: q}, 0, probe, 0, exec.JoinOptions{}))
		joinErr <- err
	}()

	// Mid-stream: the build has taken (and is charged for) a good many
	// frames, and the producer keeps the window full behind it.
	deadline := time.Now().Add(5 * time.Second)
	for ex.Mem.Used() < int64(20*len(frame)) {
		if time.Now().After(deadline) {
			t.Fatalf("the build consumed only %d bytes of the stream", ex.Mem.Used())
		}
		time.Sleep(time.Millisecond)
	}
	cancel := &NetError{Msg: "query canceled"}
	epA.retire(qid, cancel)
	epB.retire(qid, cancel)

	for _, ch := range []chan error{sendErr, joinErr} {
		select {
		case err := <-ch:
			if !IsNetError(err) {
				t.Fatalf("a canceled end returned %v, want the cancellation NetError", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an end did not unblock after retire")
		}
	}
	if used := ex.Mem.Used(); used != 0 {
		t.Fatalf("%d bytes still charged to the memory budget after the cancel", used)
	}
	closePair()
	exec.VerifyNoLeaks(t)
	if out := frameBufsOut.Load(); out != 0 {
		t.Fatalf("%d pooled wire buffers still checked out after cancel and close", out)
	}
}

// TestCorruptFrameSurfacesAtConsumer: decode runs on the consumer, so a
// frame that does not decode is the consumer's error — naming the
// stream — not a dead connection; its wire buffer and its credit still
// go back, and the frames behind it stay deliverable.
func TestCorruptFrameSurfacesAtConsumer(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	good := testFrame(t, 8)
	epA, epB, closePair := pairEndpoints(t, 0)
	defer closePair()
	const qid = 3
	key := streamKey{exch: 4, src: 1, dst: 0}
	hdr := appendStreamHdr(nil, streamHdr{qid: qid, exch: key.exch, src: key.src, dst: key.dst})
	gate := epB.attemptFor(qid).gateFor(key)
	c := epB.peerConn(0)
	for _, frame := range [][]byte{good[:len(good)-3], good} {
		if err := gate.acquire(len(frame)); err != nil {
			t.Fatal(err)
		}
		if err := c.writeFrame(msgData, append(append([]byte(nil), hdr...), frame...)); err != nil {
			t.Fatal(err)
		}
	}
	q := epA.attemptFor(qid).queueFor(qkey{key.exch, key.dst})
	q.setExpect(1)
	if b, err := q.next(); err == nil || IsNetError(err) || !strings.Contains(err.Error(), "stream (4,1→0)") {
		t.Fatalf("truncated frame: batch %v, err %v; want a decode error naming the stream", b, err)
	}
	b, err := q.next()
	if err != nil || b.Len() != 8 {
		t.Fatalf("frame behind the corrupt one: %v, %v", b, err)
	}
	b.Release()
	// Both frames' credit comes back: the window refills completely.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gate.mu.Lock()
		avail := gate.avail
		gate.mu.Unlock()
		if avail == gate.max {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("credit not returned: %d of %d available", avail, gate.max)
		}
		time.Sleep(time.Millisecond)
	}
	epA.retire(qid, nil)
	epB.retire(qid, nil)
}
