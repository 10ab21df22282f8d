package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/query"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
)

// system is one freshly set-up instance of the database under test:
// a loaded store plus whichever front door the workload drives.
type system struct {
	w      workload
	seed   int64
	store  *dfs.Store
	data   *tpch.Dataset
	tables *tpch.Tables
	cat    query.Catalog
	model  cluster.CostModel
	spill  string

	cl   *adbnet.Cluster  // tcp workloads
	sess *session.Session // session workloads, untraced pass
	svc  *serve.Service   // serving workloads

	// Set-up time and its parts, in seconds.
	setupS, generateS, loadS, netStartS float64
}

func costModel() cluster.CostModel {
	m := cluster.Default()
	m.Nodes = nodes
	return m
}

func (w workload) optimizerConfig(seed int64) optimizer.Config {
	return optimizer.Config{Mode: w.mode, WindowSize: windowSize, Seed: seed}
}

// setup builds the system a workload runs against: generate, load,
// start the TCP cluster when the workload has one, and end at a full
// GC so the timed phase starts from a settled heap. withSession is
// false for the traced pass, which drives the layers itself.
func setup(w workload, seed int64, spill string, withSession bool) (*system, error) {
	start := time.Now()
	sys := &system{w: w, seed: seed, model: costModel(), spill: spill}
	sys.store = dfs.NewStore(nodes, 2, dataSeed)
	sys.data = tpch.Generate(w.sf, dataSeed)
	generated := time.Now()
	tables, err := tpch.LoadAll(sys.store, sys.data, tpch.LoadConfig{RowsPerBlock: rowsPerBlock, Seed: dataSeed})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sys.tables, sys.cat = tables, tables.Catalog()
	loaded := time.Now()
	netReady := loaded

	opt := w.optimizerConfig(seed)
	if w.tcp {
		// Workers build the same replica through the registered builder;
		// they are goroutines so the whole system is one process whose
		// RSS and CPU the bench can read. The generous timeout covers
		// three replica builds serialized on two cores.
		sys.cl, err = adbnet.Start(adbnet.Options{
			Workers:   nodes,
			Fragments: nodes,
			Dataset:   datasets.TPCHName,
			Params:    datasets.TPCHParams{SF: w.sf, RowsPerBlock: rowsPerBlock, Nodes: nodes, Seed: dataSeed},
			Exec: adbnet.ExecConfig{
				Model:        sys.model,
				Optimizer:    adbnet.OptimizerConfig{Mode: int(opt.Mode), WindowSize: opt.WindowSize, Seed: opt.Seed},
				BudgetBlocks: budgetBlocks,
				MemBudget:    w.mem,
			},
			InProcess:    true,
			KeepAlive:    2 * time.Second,
			SetupTimeout: 2 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		netReady = time.Now()
	}
	switch {
	case w.clients > 0:
		sys.svc = serve.New(sys.store, serve.Config{
			Model: sys.model, Optimizer: opt, BudgetBlocks: budgetBlocks,
			MemBudget: w.mem, SpillDir: spill, Distributed: true,
		})
	case withSession:
		sys.sess = session.New(sys.store, session.Config{
			Model: sys.model, Optimizer: opt, BudgetBlocks: budgetBlocks,
			MemBudget: w.mem, SpillDir: spill, Distributed: true, Net: sys.cl,
		})
	}
	runtime.GC()
	end := time.Now()
	sys.setupS = end.Sub(start).Seconds()
	sys.generateS = generated.Sub(start).Seconds()
	sys.loadS = loaded.Sub(generated).Seconds()
	sys.netStartS = netReady.Sub(loaded).Seconds()
	return sys, nil
}

// close stops the cluster's workers and waits for them.
func (s *system) close() {
	if s.cl != nil {
		s.cl.Close()
	}
}

// admissionStats is the serving workload's admission ledger; zero for
// session workloads.
func (s *system) admissionStats() serve.AdmissionStats {
	if s.svc == nil {
		return serve.AdmissionStats{}
	}
	return s.svc.Admission().Stats()
}

// queryRecord is what one timed query did, as the front door reports
// it — nothing here needs tracing.
type queryRecord struct {
	label     string
	ms        float64 // wall latency, bind included
	rows      int
	checksum  uint64 // serving workloads only (serve.Result carries it)
	simS      float64
	counters  cluster.Counters
	adapt     optimizer.StepReport
	queuedMs  float64
	cacheHit  int
	cacheMiss int
	err       error
}

// runResult is one pass over the whole schedule.
type runResult struct {
	streamS float64
	// recs holds client 0's queries in order, then client 1's.
	recs []queryRecord
	rt   runtimeDelta
}

func (r *runResult) latencies() []float64 {
	out := make([]float64, len(r.recs))
	for i := range r.recs {
		out[i] = r.recs[i].ms
	}
	return out
}

func (r *runResult) simSeconds() float64 {
	t := 0.0
	for i := range r.recs {
		t += r.recs[i].simS
	}
	return t
}

func (r *runResult) failed() int {
	n := 0
	for i := range r.recs {
		if r.recs[i].err != nil {
			n++
		}
	}
	return n
}

// runUntraced drains the schedule through the system's public front
// door — Session.Stream, or Service.Stream from one goroutine per
// client — timing each query from bind to last batch.
func (s *system) runUntraced(specs []query.Spec) *runResult {
	res := &runResult{}
	before := readRuntime()
	start := time.Now()
	if s.svc == nil {
		res.recs = make([]queryRecord, len(specs))
		for i, sp := range specs {
			res.recs[i] = s.sessionQuery(sp)
		}
	} else {
		res.recs = s.serveClients(specs, s.serveQuery)
	}
	res.streamS = time.Since(start).Seconds()
	res.rt = readRuntime().since(before)
	return res
}

func (s *system) sessionQuery(sp query.Spec) queryRecord {
	rec := queryRecord{label: sp.Label}
	t0 := time.Now()
	q, err := session.FromSpec(s.cat, sp)
	if err == nil {
		var r *session.Result
		r, err = s.sess.Stream(q, nil)
		if r != nil {
			rec.rows, rec.simS, rec.counters, rec.adapt = r.RowCount, r.SimSeconds, r.Counters, r.Adapt
		}
	}
	rec.ms = msSince(t0)
	rec.err = err
	return rec
}

func tenantName(c int) string { return fmt.Sprintf("c%d", c) }

// serveClients runs one closed-loop goroutine per tenant, each sending
// the whole schedule through one, and returns client 0's records, then
// client 1's. The tenants share a schedule, so a repeat can hit the
// plan cache.
func (s *system) serveClients(specs []query.Spec, one func(c, i int, sp query.Spec) queryRecord) []queryRecord {
	recs := make([]queryRecord, s.w.clients*len(specs))
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, sp := range specs {
				recs[c*len(specs)+i] = one(c, i, sp)
			}
		}(c)
	}
	wg.Wait()
	return recs
}

func (s *system) serveQuery(c, _ int, sp query.Spec) queryRecord {
	t0 := time.Now()
	q, err := session.FromSpec(s.cat, sp)
	if err != nil {
		return queryRecord{label: sp.Label, err: err}
	}
	rec := s.serveStream(c, q)
	rec.ms = msSince(t0)
	return rec
}

// serveStream sends one bound query through Service.Stream; ms is the
// service's own wall time for it.
func (s *system) serveStream(c int, q session.Query) queryRecord {
	rec := queryRecord{label: q.Label}
	r, err := s.svc.Stream(context.Background(), tenantName(c), q, nil)
	if r != nil {
		rec.rows, rec.checksum = r.RowCount, r.Checksum
		rec.simS, rec.counters, rec.adapt = r.SimSeconds, r.Counters, r.Adapt
		rec.ms = float64(r.Wall) / float64(time.Millisecond)
		rec.queuedMs = float64(r.Queued) / float64(time.Millisecond)
		rec.cacheHit, rec.cacheMiss = r.CacheHits, r.CacheMisses
	}
	rec.err = err
	return rec
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
