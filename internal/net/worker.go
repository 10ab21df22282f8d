// The worker runtime: one process holding a full deterministic replica
// of the store. On setup it builds the dataset through the process-
// local registry (same generator parameters in every process → byte-
// identical replicas), dials its mesh peers, and reports ready. Each
// query message then replays the session loop deterministically:
// adapt once per stream sequence number (a retry of the same seq never
// re-adapts, so layouts stay in lockstep across processes and across
// failover attempts), compile the identical plan against the worker's
// netFabric view, and run the pumps for the fragments this worker was
// assigned. Execution counters and per-link traffic return to the
// coordinator in the qdone message.
package net

import (
	"context"
	"encoding/json"
	"fmt"
	gonet "net"
	"os"
	"sync"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
)

// DatasetBuilder deterministically builds a store replica and its
// catalog from serialized parameters. Every process of a cluster runs
// the same builder with the same parameters; determinism is the
// replication mechanism — there is no data shipping at setup.
type DatasetBuilder func(params json.RawMessage) (*dfs.Store, query.Catalog, error)

var (
	dsMu       sync.Mutex
	dsRegistry = map[string]DatasetBuilder{}
)

// RegisterDataset registers a named deterministic dataset builder.
// Binaries and test mains must register their datasets before
// MaybeWorker, so re-exec'd worker processes can build their replicas.
func RegisterDataset(name string, build DatasetBuilder) {
	dsMu.Lock()
	defer dsMu.Unlock()
	dsRegistry[name] = build
}

func datasetFor(name string) (DatasetBuilder, error) {
	dsMu.Lock()
	defer dsMu.Unlock()
	b, ok := dsRegistry[name]
	if !ok {
		return nil, fmt.Errorf("net: dataset %q not registered in this process", name)
	}
	return b, nil
}

// worker is one worker process's runtime.
type worker struct {
	proc  int
	ep    *endpoint
	coord *conn
	ln    gonet.Listener
	ka    time.Duration

	setup setupMsg
	ex    *exec.Executor // template executor over the replica store
	cat   query.Catalog
	opt   *optimizer.Optimizer
	spill string

	lastSeq int
	queryCh chan queryMsg
	closing chan struct{}
	meshKA  sync.Once
}

// RunWorker connects to a coordinator and serves queries until the
// coordinator connection dies. It is the blocking body of a worker
// process (spawned via SpawnWorkers/MaybeWorker) or an in-process
// worker goroutine in tests.
func RunWorker(coordAddr string, proc int) error {
	w := &worker{proc: proc, lastSeq: -1, queryCh: make(chan queryMsg, 16), closing: make(chan struct{})}
	defer w.cleanup()

	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("net: worker %d: listen: %w", proc, err)
	}
	w.ln = ln

	nc, err := gonet.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("net: worker %d: dial coordinator: %w", proc, err)
	}
	c := newConn(nc, 0) // keepalive configured by setup
	c.peer = 0
	w.coord = c
	if err := c.writeJSON(msgHello, helloMsg{Proc: proc, Addr: ln.Addr().String()}); err != nil {
		return err
	}

	// The setup frame arrives before the endpoint exists; read it
	// synchronously, then start the demux loops.
	var fb frameBuf
	if err := c.readFrame(&fb); err != nil {
		return fmt.Errorf("net: worker %d: await setup: %w", proc, err)
	}
	if fb.typ() != msgSetup {
		return fmt.Errorf("net: worker %d: expected setup, got %s", proc, msgName(fb.typ()))
	}
	if err := json.Unmarshal(fb.payload(), &w.setup); err != nil {
		return fmt.Errorf("net: worker %d: decode setup: %w", proc, err)
	}
	w.ka = time.Duration(w.setup.KeepAliveMs) * time.Millisecond
	w.ep = newEndpoint(proc, w.setup.Window)
	w.ep.setPeer(0, c)

	if err := w.buildReplica(); err != nil {
		// Report the failure so the coordinator surfaces it instead of
		// timing out on a missing ready. Best-effort: the worker exits
		// with err either way, and its link's death tells the
		// coordinator too.
		_ = c.writeJSON(msgQErr, qerrMsg{Msg: err.Error()})
		return err
	}
	go w.acceptLoop()
	if err := w.dialPeers(); err != nil {
		_ = c.writeJSON(msgQErr, qerrMsg{Msg: err.Error()}) // best-effort, as above
		return err
	}
	if err := c.writeFrame(msgReady, nil); err != nil {
		return err
	}
	// Keepalive starts only after ready: replica builds are silent and
	// can outlast the ping deadline, so the build phase runs without
	// read deadlines on both ends of the coordinator link.
	c.enableKeepAlive(w.ka)

	go w.queryLoop()
	c.serve(w.ep.demux(c, w.handleFrame(c)), func(err error) {
		w.ep.peerDied(0, err)
		close(w.closing)
	})
	return nil
}

func (w *worker) cleanup() {
	if w.ln != nil {
		w.ln.Close()
	}
	// Drop every mesh/coordinator connection so their reader and pinger
	// goroutines exit with the worker.
	if w.ep != nil {
		w.ep.mu.Lock()
		conns := make([]*conn, 0, len(w.ep.peers))
		for _, c := range w.ep.peers {
			conns = append(conns, c)
		}
		w.ep.mu.Unlock()
		for _, c := range conns {
			c.die(fmt.Errorf("net: worker %d shutting down", w.proc))
		}
	}
	if w.spill != "" {
		os.RemoveAll(w.spill)
	}
}

// buildReplica builds the store, catalog, template executor and
// optimizer from the setup's dataset parameters.
func (w *worker) buildReplica() error {
	build, err := datasetFor(w.setup.Dataset)
	if err != nil {
		return err
	}
	store, cat, err := build(w.setup.Params)
	if err != nil {
		return fmt.Errorf("net: worker %d: build dataset %q: %w", w.proc, w.setup.Dataset, err)
	}
	if store.NumNodes() != w.setup.N {
		return fmt.Errorf("net: worker %d: dataset has %d nodes, setup says %d", w.proc, store.NumNodes(), w.setup.N)
	}
	w.cat = cat
	cfg := w.setup.Exec
	ex := exec.New(store, &cluster.Meter{})
	ex.Workers = cfg.Workers
	w.ex = ex
	w.opt = optimizer.New(optimizer.Config{
		Mode:         optimizer.Mode(cfg.Optimizer.Mode),
		WindowSize:   cfg.Optimizer.WindowSize,
		FMin:         cfg.Optimizer.FMin,
		EnableAmoeba: cfg.Optimizer.Amoeba,
		Seed:         cfg.Optimizer.Seed,
	})
	dir, err := os.MkdirTemp(w.setup.SpillRoot, fmt.Sprintf("adaptdb-net-w%d-", w.proc))
	if err != nil {
		return err
	}
	w.spill = dir
	return nil
}

// acceptLoop accepts mesh connections from higher-numbered peers.
func (w *worker) acceptLoop() {
	for {
		nc, err := w.ln.Accept()
		if err != nil {
			return
		}
		c := newConn(nc, 0) // keepalive deferred until the first query
		go func() {
			// The first frame must identify the dialer.
			var fb frameBuf
			if err := c.readFrame(&fb); err != nil || fb.typ() != msgHello {
				c.die(fmt.Errorf("net: mesh accept: bad hello"))
				return
			}
			var h helloMsg
			if json.Unmarshal(fb.payload(), &h) != nil {
				c.die(fmt.Errorf("net: mesh accept: bad hello"))
				return
			}
			c.peer = h.Proc
			w.ep.setPeer(h.Proc, c)
			// Acknowledge only once the dialer is registered here: it holds
			// back its ready until then, so no query can find this side of
			// the pair still missing.
			if err := c.writeFrame(msgHello, nil); err != nil {
				c.die(err)
				return
			}
			c.serve(w.ep.demux(c, w.handleFrame(c)), func(err error) { w.ep.peerDied(h.Proc, err) })
		}()
	}
}

// dialPeers establishes the mesh: worker i dials every lower-numbered
// worker (one connection per pair; the lower side accepts).
func (w *worker) dialPeers() error {
	for proc, addr := range w.setup.Procs {
		if proc >= w.proc {
			continue
		}
		if err := w.dialPeer(proc, addr); err != nil {
			return err
		}
	}
	return nil
}

func (w *worker) dialPeer(proc int, addr string) error {
	nc, err := gonet.Dial("tcp", addr)
	if err != nil {
		return &NetError{Msg: fmt.Sprintf("dial peer: %v", err), Peer: proc}
	}
	c := newConn(nc, 0) // keepalive deferred until the first query
	c.peer = proc
	if err := c.writeJSON(msgHello, helloMsg{Proc: w.proc}); err != nil {
		return &NetError{Msg: err.Error(), Peer: proc}
	}
	// Wait for the acceptor's hello back: it is sent after the acceptor
	// registered this connection, and this worker reports ready only
	// after every dial returned — so once the coordinator dispatches, both
	// ends of every mesh pair know each other.
	var fb frameBuf
	if err := c.readFrame(&fb); err != nil || fb.typ() != msgHello {
		return &NetError{Msg: fmt.Sprintf("mesh hello not acknowledged: %v", err), Peer: proc}
	}
	w.ep.setPeer(proc, c)
	go c.serve(w.ep.demux(c, w.handleFrame(c)), func(err error) { w.ep.peerDied(proc, err) })
	return nil
}

// handleFrame handles one connection's control frames.
func (w *worker) handleFrame(c *conn) func(typ byte, payload []byte) error {
	return func(typ byte, payload []byte) error {
		switch typ {
		case msgQuery:
			var qm queryMsg
			if err := json.Unmarshal(payload, &qm); err != nil {
				return fmt.Errorf("net: decode query: %w", err)
			}
			select {
			case w.queryCh <- qm:
			case <-w.closing:
			}
			return nil
		case msgAbort:
			var am abortMsg
			if err := json.Unmarshal(payload, &am); err != nil {
				return fmt.Errorf("net: decode abort: %w", err)
			}
			w.ep.retire(am.QID, &NetError{Msg: "attempt aborted by coordinator", Peer: -1})
			return nil
		default:
			return fmt.Errorf("net: worker %d: unexpected frame %s", w.proc, msgName(typ))
		}
	}
}

// queryLoop runs dispatched attempts serially, in arrival order — the
// session stream is serial, so at most one attempt is live; running
// them on one goroutine also serializes adaptation.
func (w *worker) queryLoop() {
	for {
		select {
		case <-w.closing:
			return
		case qm := <-w.queryCh:
			// A dispatched query means every worker reported ready, so
			// all mesh ends are serving — safe to start ping deadlines.
			w.meshKA.Do(w.enableMeshKeepAlive)
			w.runQuery(qm)
		}
	}
}

// report sends the attempt outcome to the coordinator.
func (w *worker) report(qid uint64, counters cluster.Counters, links cluster.LinkStats, err error) error {
	if err != nil {
		return w.coord.writeJSON(msgQErr, qerrMsg{QID: qid, Msg: err.Error(), Net: IsNetError(err)})
	}
	return w.coord.writeJSON(msgQDone, qdoneMsg{QID: qid, Counters: counters, Links: linksToRecs(links)})
}

// runQuery executes one attempt end to end.
func (w *worker) runQuery(qm queryMsg) {
	at := w.ep.attemptFor(qm.QID)
	if at == nil {
		return // aborted before we dequeued it
	}
	counters, links, err := w.attemptRun(qm, at)
	w.ep.retire(qm.QID, fmt.Errorf("net: attempt %d finished", qm.QID))
	// An aborted attempt reports its abort error; the coordinator has
	// tombstoned the qid and discards the stale report.
	if rerr := w.report(qm.QID, counters, links, err); rerr != nil {
		// An undeliverable outcome leaves the coordinator waiting on this
		// worker: drop the link so it sees the death and fails over
		// instead. (A failed write has usually killed the link already;
		// a payload that cannot encode has not.)
		w.coord.die(rerr)
	}
}

func (w *worker) attemptRun(qm queryMsg, at *attempt) (cluster.Counters, cluster.LinkStats, error) {
	var zero cluster.Counters
	if f := qm.Fault; f != nil && f.Proc == w.proc {
		w.armFault(f)
	}

	// Bind against this replica's catalog; identical spec + identical
	// catalog → identical bound query in every process.
	bound, err := qm.Spec.Bind(w.cat)
	if err != nil {
		return zero, nil, fmt.Errorf("net: worker %d: bind: %w", w.proc, err)
	}

	// Adapt exactly once per stream sequence number (a failover retry
	// reuses its seq and must not re-adapt). The adaptation meter is
	// discarded: the coordinator's own replica meters migration I/O
	// into the query's counters — once, not once per process.
	if qm.Seq > w.lastSeq {
		if _, err := w.opt.OnQuery(bound.Uses(), &cluster.Meter{}); err != nil {
			return zero, nil, fmt.Errorf("net: worker %d: adapt: %w", w.proc, err)
		}
		w.lastSeq = qm.Seq
	}

	// A worker with no assigned fragments only adapts.
	mine := 0
	for _, p := range qm.Assign {
		if p == w.proc {
			mine++
		}
	}
	if mine == 0 {
		return zero, nil, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-at.done
		cancel()
	}()

	// Per-query executor view: own meter, own budget (split per
	// fragment by EnableNodes), own spill dir, own node set.
	qmeter := &cluster.Meter{}
	qmeter.SetLinkWeights(recsToWeights(qm.Weights))
	qex := w.ex.ForQuery(exec.QueryCtx{
		Ctx:            ctx,
		Meter:          qmeter,
		Mem:            exec.NewMemBudget(w.setup.Exec.MemBudget),
		SpillDir:       w.spill,
		Workers:        w.setup.Exec.Workers,
		Distributed:    true,
		WorkersPerNode: w.setup.Exec.WorkersPerNode,
	})

	fb, err := newNetFabric(w.ep, at, qex, qm.Assign)
	if err != nil {
		return zero, nil, err
	}
	runner := w.newRunner(qex, recsToWeights(qm.Weights))
	qex.SetFabric(fb)
	_, err = runner.CompileSpec(bound)
	qex.SetFabric(nil)
	if err != nil {
		return zero, nil, fmt.Errorf("net: worker %d: compile: %w", w.proc, err)
	}

	fb.Run(ctx)
	err = fb.Wait()
	if ns := qex.Nodes(); ns != nil {
		ns.Flush()
	}
	counters := qmeter.Reset()
	links := qmeter.ResetLinks()
	// The attempt's first failure is its error: an abort or a peer death
	// cancels ctx, and the pumps then report only the cancellation, which
	// the coordinator would not recognise as a transport failure to retry.
	if ferr := at.failure(); ferr != nil {
		err = ferr
	}
	if err != nil {
		return zero, nil, err
	}
	return counters, links, nil
}

// newRunner replicates the planner configuration every process must
// share for identical compiles.
func (w *worker) newRunner(qex *exec.Executor, lw cluster.LinkWeights) *planner.Runner {
	cfg := w.setup.Exec
	r := planner.NewRunner(qex, cfg.Model)
	if cfg.BudgetBlocks > 0 {
		r.BudgetBlocks = cfg.BudgetBlocks
	}
	r.ForceShuffle = cfg.ForceShuffle
	r.FixedOrder = cfg.FixedOrder
	r.EstScale = cfg.EstScale
	r.LinkWeights = lw
	return r
}

// enableMeshKeepAlive arms ping deadlines on the mesh connections.
// Deferred until the first query: during setup a dialed peer may still
// be building its replica and would miss the ping deadline.
func (w *worker) enableMeshKeepAlive() {
	w.ep.mu.Lock()
	conns := make([]*conn, 0, len(w.ep.peers))
	for proc, c := range w.ep.peers {
		if proc != 0 { // the coordinator link is enabled at ready
			conns = append(conns, c)
		}
	}
	w.ep.mu.Unlock()
	for _, c := range conns {
		c.enableKeepAlive(w.ka)
	}
}

// armFault installs a query's fault plan on this process's
// connections (all of them, or just the one toward Fault.Peer).
func (w *worker) armFault(f *FaultPlan) {
	w.ep.mu.Lock()
	defer w.ep.mu.Unlock()
	for proc, c := range w.ep.peers {
		if f.Peer >= 0 && proc != f.Peer {
			continue
		}
		c.arm(f, w.killSelf)
	}
}

// killSelf is the kill fault: a real worker process exits mid-write;
// an in-process worker emulates node death by dropping every
// connection abruptly — peers see resets, the coordinator fails the
// attempt over to a replica, exactly as with a true process death.
func (w *worker) killSelf() {
	if realWorkerProcess {
		os.Exit(1)
	}
	w.ep.mu.Lock()
	conns := make([]*conn, 0, len(w.ep.peers))
	for _, c := range w.ep.peers {
		conns = append(conns, c)
	}
	w.ep.mu.Unlock()
	for _, c := range conns {
		abruptClose(c)
	}
	w.ln.Close()
}
