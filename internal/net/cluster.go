// The coordinator: spawns and meshes the worker processes, dispatches
// query attempts, and owns the failover policy. One query of the
// session stream becomes one or more attempts; each attempt assigns
// every plan fragment to a live worker (round-robin over the live
// set), dispatches the serialized spec, and runs the coordinator's own
// compiled view of the plan. When an attempt fails with a transport
// error — a worker death, a reset or stalled stream — the coordinator
// aborts it everywhere, drops the dead worker from the live set, and
// the session retries: the next attempt reassigns the dead worker's
// fragments to a surviving replica holder, and because every process
// is a full deterministic replica, any survivor can host any fragment.
// Non-transport errors surface to the caller unchanged.
package net

import (
	"context"
	"encoding/json"
	"fmt"
	gonet "net"
	"os"
	"slices"
	"sync"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/query"
)

// Options configures Start.
type Options struct {
	// Workers is the number of worker processes (≥ 1).
	Workers int
	// Fragments is the plan fragment count — the store's node count.
	// Every process's replica must be built with this many nodes.
	Fragments int
	// Dataset names the registered dataset builder; Params is its
	// JSON-serializable parameter block.
	Dataset string
	Params  any
	// Exec is the shared execution configuration. A zero Model is
	// normalized to cluster.Default() before shipping.
	Exec ExecConfig
	// Window overrides the per-stream credit window bytes (0 = 256KiB).
	Window int
	// KeepAlive is the connection ping interval; a peer silent for 3×
	// this is declared dead. 0 means 2s. Negative disables keepalive.
	KeepAlive time.Duration
	// InProcess runs workers as goroutines in this process instead of
	// spawned child processes — same sockets, same protocol, no exec.
	// The fault and flow-control suites use it; the differential wall
	// uses real processes.
	InProcess bool
	// SetupTimeout bounds worker spawn+replica build (0 = 60s).
	SetupTimeout time.Duration
	// FinishTimeout bounds the wait for worker completion reports after
	// a successful drain (0 = 30s).
	FinishTimeout time.Duration
	// MaxAttempts bounds attempts per query, first try included (0 = 3).
	MaxAttempts int
}

func (o *Options) normalize() {
	if o.Exec.Model == (cluster.CostModel{}) {
		o.Exec.Model = cluster.Default()
	}
	if o.KeepAlive == 0 {
		o.KeepAlive = 2 * time.Second
	}
	if o.KeepAlive < 0 {
		o.KeepAlive = 0
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 60 * time.Second
	}
	if o.FinishTimeout <= 0 {
		o.FinishTimeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Window <= 0 {
		o.Window = defaultWindow
	}
}

// Cluster is the coordinator's handle on a running worker fleet.
type Cluster struct {
	opts Options
	ep   *endpoint
	ln   gonet.Listener

	mu      sync.Mutex
	conns   map[int]*conn // live worker control connections
	active  map[uint64]*Attempt
	nextQID uint64
	fault   *FaultPlan // armed for the next Begin, one-shot

	linkHist cluster.LinkStats
	weights  cluster.LinkWeights

	helloCh chan helloMsg
	readyCh chan readyEvent

	closed   chan struct{}
	closeOne sync.Once
	procs    []*spawnedWorker
}

type readyEvent struct {
	proc int
	err  error
}

// Start listens, spawns the workers, ships them the setup, and waits
// until every replica is built and meshed.
func Start(opts Options) (*Cluster, error) {
	opts.normalize()
	if opts.Workers < 1 {
		return nil, fmt.Errorf("net: need at least one worker")
	}
	if opts.Fragments < 1 {
		return nil, fmt.Errorf("net: need at least one plan fragment")
	}
	params, err := json.Marshal(opts.Params)
	if err != nil {
		return nil, fmt.Errorf("net: encode dataset params: %w", err)
	}
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:     opts,
		ep:       newEndpoint(0, opts.Window),
		ln:       ln,
		conns:    make(map[int]*conn),
		active:   make(map[uint64]*Attempt),
		linkHist: make(cluster.LinkStats),
		helloCh:  make(chan helloMsg, opts.Workers),
		readyCh:  make(chan readyEvent, opts.Workers),
		closed:   make(chan struct{}),
	}
	go c.acceptLoop()

	for proc := 1; proc <= opts.Workers; proc++ {
		sw, err := launchWorker(ln.Addr().String(), proc, opts.InProcess)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.procs = append(c.procs, sw)
	}

	// Gather hellos, then ship the setup with the full mesh address map.
	deadline := time.After(opts.SetupTimeout)
	addrs := make(map[int]string, opts.Workers)
	for len(addrs) < opts.Workers {
		select {
		case h := <-c.helloCh:
			addrs[h.Proc] = h.Addr
		case <-deadline:
			c.Close()
			return nil, fmt.Errorf("net: %d/%d workers connected before setup timeout", len(addrs), opts.Workers)
		case <-c.closed:
			return nil, fmt.Errorf("net: cluster closed during setup")
		}
	}
	setup := setupMsg{
		N:           opts.Fragments,
		Dataset:     opts.Dataset,
		Params:      params,
		Procs:       addrs,
		Exec:        opts.Exec,
		Window:      opts.Window,
		KeepAliveMs: opts.KeepAlive.Milliseconds(),
		SpillRoot:   os.TempDir(),
	}
	c.mu.Lock()
	conns := make([]*conn, 0, len(c.conns))
	for _, cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		if err := cc.writeJSON(msgSetup, setup); err != nil {
			c.Close()
			return nil, err
		}
	}
	ready := 0
	for ready < opts.Workers {
		select {
		case ev := <-c.readyCh:
			if ev.err != nil {
				c.Close()
				return nil, fmt.Errorf("net: worker %d setup: %w", ev.proc, ev.err)
			}
			ready++
		case <-deadline:
			c.Close()
			return nil, fmt.Errorf("net: %d/%d workers ready before setup timeout", ready, opts.Workers)
		case <-c.closed:
			return nil, fmt.Errorf("net: cluster closed during setup")
		}
	}
	return c, nil
}

// Close tears the fleet down: connections close, spawned processes are
// killed, in-process workers wind down with their connections.
func (c *Cluster) Close() error {
	c.closeOne.Do(func() {
		close(c.closed)
		c.ln.Close()
		c.mu.Lock()
		conns := make([]*conn, 0, len(c.conns))
		for _, cc := range c.conns {
			conns = append(conns, cc)
		}
		c.mu.Unlock()
		for _, cc := range conns {
			cc.die(fmt.Errorf("net: cluster closed"))
		}
		for _, sw := range c.procs {
			sw.stop()
		}
	})
	return nil
}

func (c *Cluster) acceptLoop() {
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return
		}
		// No keepalive until the worker is ready: replica builds take
		// arbitrarily long and the worker is silent throughout.
		cc := newConn(nc, 0)
		go func() {
			var fb frameBuf
			if err := cc.readFrame(&fb); err != nil || fb.typ() != msgHello {
				cc.die(fmt.Errorf("net: accept: bad hello"))
				return
			}
			var h helloMsg
			if json.Unmarshal(fb.payload(), &h) != nil || h.Proc < 1 {
				cc.die(fmt.Errorf("net: accept: bad hello"))
				return
			}
			cc.peer = h.Proc
			c.mu.Lock()
			c.conns[h.Proc] = cc
			c.mu.Unlock()
			c.ep.setPeer(h.Proc, cc)
			select {
			case c.helloCh <- h:
			default:
			}
			cc.serve(c.ep.demux(cc, c.handleFrame(cc)), func(err error) { c.workerDied(h.Proc, err) })
		}()
	}
}

func (c *Cluster) workerDied(proc int, cause error) {
	c.mu.Lock()
	if cc := c.conns[proc]; cc != nil && cc.isDead() {
		delete(c.conns, proc)
	}
	atts := make([]*Attempt, 0, len(c.active))
	for _, a := range c.active {
		if slices.Contains(a.procs, proc) {
			atts = append(atts, a)
		}
	}
	c.mu.Unlock()
	c.ep.peerDied(proc, cause)
	err := &NetError{Msg: fmt.Sprintf("worker died: %v", cause), Peer: proc}
	for _, a := range atts {
		a.noteReport(proc, report{err: err})
	}
}

func (c *Cluster) handleFrame(cc *conn) func(typ byte, payload []byte) error {
	return func(typ byte, payload []byte) error {
		switch typ {
		case msgReady:
			cc.enableKeepAlive(c.opts.KeepAlive)
			select {
			case c.readyCh <- readyEvent{proc: cc.peer}:
			default:
			}
			return nil
		case msgQErr:
			var m qerrMsg
			if err := json.Unmarshal(payload, &m); err != nil {
				return err
			}
			if m.QID == 0 {
				// Setup-phase failure.
				select {
				case c.readyCh <- readyEvent{proc: cc.peer, err: fmt.Errorf("%s", m.Msg)}:
				default:
				}
				return nil
			}
			var rerr error = fmt.Errorf("worker %d: %s", cc.peer, m.Msg)
			if m.Net {
				rerr = &NetError{Msg: m.Msg, Peer: cc.peer}
			}
			if m.Dead > 0 && m.Dead != cc.peer {
				// Drop the worker the reporter saw die before failing the
				// attempt, so the retry cannot dispatch to it even if its
				// own connection has not noticed yet.
				c.mu.Lock()
				dead := c.conns[m.Dead]
				c.mu.Unlock()
				if dead != nil {
					dead.die(rerr)
				}
			}
			c.routeReport(m.QID, cc.peer, report{err: rerr})
			// Fail the local attempt so a blocked coordinator drain
			// surfaces the worker's error instead of hanging.
			if at := c.lookupAttempt(m.QID); at != nil {
				at.fail(rerr)
			}
			return nil
		case msgQDone:
			var m qdoneMsg
			if err := json.Unmarshal(payload, &m); err != nil {
				return err
			}
			c.routeReport(m.QID, cc.peer, report{counters: m.Counters, links: recsToLinks(m.Links), done: true})
			return nil
		default:
			return fmt.Errorf("net: coordinator: unexpected frame %s", msgName(typ))
		}
	}
}

func (c *Cluster) lookupAttempt(qid uint64) *attempt {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	return c.ep.atts[qid]
}

func (c *Cluster) routeReport(qid uint64, proc int, r report) {
	c.mu.Lock()
	a := c.active[qid]
	c.mu.Unlock()
	if a != nil {
		a.noteReport(proc, r)
	}
}

// liveProcs returns the live worker ids, ascending.
func (c *Cluster) liveProcs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.conns))
	for proc, cc := range c.conns {
		if !cc.isDead() {
			out = append(out, proc)
		}
	}
	slices.Sort(out)
	return out
}

// LiveWorkers reports how many workers are still alive.
func (c *Cluster) LiveWorkers() int { return len(c.liveProcs()) }

// MaxAttempts is the per-query attempt bound the session retries under.
func (c *Cluster) MaxAttempts() int { return c.opts.MaxAttempts }

// Weights returns link weights derived from all measured traffic so
// far (nil until something was measured).
func (c *Cluster) Weights() cluster.LinkWeights {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.linkHist.Weights()
}

// ArmFault arms a one-shot fault plan for the next Begin — the test
// wall's injection point.
func (c *Cluster) ArmFault(f *FaultPlan) {
	c.mu.Lock()
	c.fault = f
	c.mu.Unlock()
}

// report is one worker's attempt outcome.
type report struct {
	counters cluster.Counters
	links    cluster.LinkStats
	err      error
	done     bool
}

// Attempt is one dispatched attempt of one query: the coordinator's
// fabric view plus the worker completion ledger.
type Attempt struct {
	c      *Cluster
	qid    uint64
	seq    int
	assign []int
	procs  []int // dispatched workers
	at     *attempt
	fb     *netFabric
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	reports map[int]report
	expired bool // the Finish report-wait deadline passed
}

// Begin dispatches a new attempt for one query of the stream: assign
// fragments round-robin over the live workers, send the serialized
// spec (with the stream seq, the link weights, and any armed fault) to
// every live worker. A worker the query message cannot reach is dead
// (the failed write kills its connection): Begin aborts what it sent
// and dispatches again without it, so a lost dispatch fails over
// without spending one of the caller's attempts, and there is at most
// one such try per worker. It fails with a NetError when no worker is
// left or the spec cannot be encoded.
func (c *Cluster) Begin(spec query.Spec, seq int, lw cluster.LinkWeights) (*Attempt, error) {
	c.mu.Lock()
	fault := c.fault
	c.fault = nil
	if fault != nil && fault.Proc == 0 {
		// A coordinator-side fault arms here; worker-side faults ride the
		// query message and arm in their target process.
		for proc, cc := range c.conns {
			if fault.Peer < 0 || proc == fault.Peer {
				cc.arm(fault, nil)
			}
		}
	}
	c.mu.Unlock()
	for {
		if a, lost, err := c.dispatch(spec, seq, lw, fault); !lost {
			return a, err
		}
	}
}

// dispatch is one try of Begin over the workers live now; lost reports
// a query message that did not reach one of them.
func (c *Cluster) dispatch(spec query.Spec, seq int, lw cluster.LinkWeights, fault *FaultPlan) (a *Attempt, lost bool, err error) {
	live := c.liveProcs()
	if len(live) == 0 {
		return nil, false, &NetError{Msg: "no live workers", Peer: -1}
	}
	c.mu.Lock()
	c.nextQID++
	qid := c.nextQID
	c.mu.Unlock()

	assign := make([]int, c.opts.Fragments)
	for i := range assign {
		assign[i] = live[i%len(live)]
	}
	payload, err := json.Marshal(queryMsg{QID: qid, Seq: seq, Spec: spec, Assign: assign, Weights: weightsToRecs(lw), Fault: fault})
	if err != nil {
		return nil, false, &NetError{Msg: fmt.Sprintf("encode query %d: %v", qid, err), Peer: -1}
	}
	a = &Attempt{
		c:       c,
		qid:     qid,
		seq:     seq,
		assign:  assign,
		procs:   live,
		at:      c.ep.attemptWith(qid, live),
		reports: make(map[int]report),
	}
	a.cond = sync.NewCond(&a.mu)
	c.mu.Lock()
	c.active[qid] = a
	c.mu.Unlock()
	for _, proc := range live {
		c.mu.Lock()
		cc := c.conns[proc] // gone or dead: out of the next try's live set
		c.mu.Unlock()
		err := fmt.Errorf("connection closed")
		if cc != nil {
			err = cc.writeFrame(msgQuery, payload)
		}
		if err != nil {
			// A worker that never got the query would never send its
			// streams or report: abort what was dispatched.
			nerr := &NetError{Msg: fmt.Sprintf("dispatch query %d: %v", qid, err), Peer: proc}
			if cc != nil {
				cc.die(nerr) // a failed write has usually killed it already
			}
			a.abort(nerr)
			c.mu.Lock()
			delete(c.active, qid)
			c.mu.Unlock()
			return nil, true, nerr
		}
	}
	return a, false, nil
}

// Fabric builds the coordinator's fabric view over its own executor
// (which must have a NodeSet of Fragments nodes). Install it with
// SetFabric, compile, then Start.
func (a *Attempt) Fabric(ex *exec.Executor) (exec.Fabric, error) {
	fb, err := newNetFabric(a.c.ep, a.at, ex, a.assign)
	if err != nil {
		return nil, err
	}
	a.fb = fb
	return fb, nil
}

// Start launches the coordinator's pumps (the src -1 streams: gathered
// intermediates feeding broadcasts, deals and global shuffles). ctx
// cancellation aborts the attempt everywhere.
func (a *Attempt) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	a.cancel = cancel
	go func() {
		select {
		case <-ctx.Done():
			a.at.fail(ctx.Err())
		case <-a.at.done:
		}
	}()
	if a.fb != nil {
		a.fb.Run(ctx)
	}
}

func (a *Attempt) noteReport(proc int, r report) {
	a.mu.Lock()
	if _, dup := a.reports[proc]; !dup {
		a.reports[proc] = r
	}
	a.cond.Broadcast()
	a.mu.Unlock()
}

// abort cancels the attempt everywhere: an abort message to every live
// worker, tombstone locally so late frames drop.
func (a *Attempt) abort(cause error) {
	for _, proc := range a.procs {
		if cc := a.c.ep.peerConn(proc); cc != nil {
			// Best-effort: a failed write has killed the link, and a worker
			// whose coordinator link dies retires every attempt it runs.
			_ = cc.writeJSON(msgAbort, abortMsg{QID: a.qid})
		}
	}
	a.c.ep.retire(a.qid, cause)
}

// Finish completes the attempt. With a nil execErr it waits (bounded)
// for every dispatched worker's completion report and merges their
// execution counters and measured link traffic into m and the link
// history; a worker that died after delivering all its data does not
// fail the attempt — the result is already complete. With a non-nil
// execErr it aborts the attempt everywhere and reports whether the
// session should retry: true only for transport-class failures with a
// surviving worker to fail over to.
func (a *Attempt) Finish(execErr error, m *cluster.Meter) (retry bool, err error) {
	defer func() {
		if a.cancel != nil {
			a.cancel()
		}
		a.c.mu.Lock()
		delete(a.c.active, a.qid)
		a.c.mu.Unlock()
		a.c.ep.retire(a.qid, fmt.Errorf("net: attempt %d finished", a.qid))
		if a.fb != nil {
			a.fb.Wait()
		}
	}()
	if execErr == nil {
		if pumpErr := a.pumpFailure(); pumpErr != nil {
			execErr = pumpErr
		}
	}
	if execErr != nil {
		a.abort(execErr)
		if !IsNetError(execErr) {
			// Also inspect the attempt's recorded cause: a drain error is
			// often the generic wrapper around a transport failure.
			if cause := a.at.failure(); cause == nil || !IsNetError(cause) {
				return false, execErr
			}
		}
		return a.c.LiveWorkers() > 0, execErr
	}

	// Drain completed: collect worker reports (bounded wait — a worker
	// that died after delivering all its data doesn't fail the query,
	// its counters are just missing from the merge).
	timer := time.NewTimer(a.c.opts.FinishTimeout)
	waited := make(chan struct{})
	go func() {
		select {
		case <-timer.C:
			a.mu.Lock()
			a.expired = true
			a.cond.Broadcast()
			a.mu.Unlock()
		case <-waited:
		}
	}()
	a.mu.Lock()
	for len(a.reports) < len(a.procs) && !a.expired {
		a.cond.Wait()
	}
	reports := make(map[int]report, len(a.reports))
	for p, r := range a.reports {
		reports[p] = r
	}
	a.mu.Unlock()
	close(waited)
	timer.Stop()

	a.c.mu.Lock()
	for _, r := range reports {
		if r.done {
			m.Merge(r.counters)
			a.c.linkHist.Merge(r.links)
		}
	}
	// The coordinator's own measured links join the history too.
	a.c.linkHist.Merge(m.ResetLinks())
	a.c.mu.Unlock()
	return false, nil
}

// pumpFailure surfaces a coordinator pump error that the root drain
// may not have observed (e.g. a broadcast source failing after the
// root's gather completed).
func (a *Attempt) pumpFailure() error {
	if a.fb == nil {
		return nil
	}
	a.fb.errMu.Lock()
	defer a.fb.errMu.Unlock()
	return a.fb.err
}
