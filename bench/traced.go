package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
)

// layerTotals accumulates, over a traced pass, the counts the layers
// report at the boundaries the spans are drawn at.
type layerTotals struct {
	strategies map[string]int // planner.Report.Joins, by strategy
	// exec.OpStats folded by label class. Busy time is inclusive: a
	// pull-based operator does its children's work inside Next.
	scanBusyNs, scanRows        int64
	joinBusyNs, joinOutRows     int64
	groupByBusyNs, spilledBytes int64
	// Coordinator-side measured link traffic (cluster.Meter.Links),
	// read before Attempt.Finish folds it into the cluster's history.
	linkBytes, linkNanos float64
	retries              int
}

func (lt *layerTotals) addOps(ops []exec.OpStats) {
	for _, op := range ops {
		switch {
		case strings.HasPrefix(op.Label, "scan("):
			lt.scanBusyNs += op.WallNs
			lt.scanRows += op.Rows
		case strings.HasPrefix(op.Label, "join["):
			lt.joinBusyNs += op.WallNs
			lt.joinOutRows += op.Rows
		case op.Label == "groupby":
			lt.groupByBusyNs += op.WallNs
		}
		lt.spilledBytes += op.SpilledBytes
	}
}

func (lt *layerTotals) addReport(r *planner.Report) {
	if r == nil {
		return
	}
	for _, j := range r.Joins {
		lt.strategies[j.Strategy]++
	}
}

// tracedSession drives the sequence session.Session drives — bind,
// adapt, compile, drain, account — on its own executor, runner,
// optimizer and meter, with a span around each call into a layer. It
// must stay a line-for-line mirror of session.run and session.runNet;
// the traced pass checks that it reproduces the untraced pass's row
// counts and simulated seconds.
type tracedSession struct {
	sys    *system
	ex     *exec.Executor
	runner *planner.Runner
	opt    *optimizer.Optimizer
	meter  *cluster.Meter
	tr     *tracer
	lt     *layerTotals
	seq    int
}

func newTracedSession(sys *system, tr *tracer, lt *layerTotals) *tracedSession {
	meter := &cluster.Meter{}
	ex := exec.New(sys.store, meter)
	ex.Mem = exec.NewMemBudget(sys.w.mem)
	ex.SpillDir = sys.spill
	ex.EnableNodes(0)
	runner := planner.NewRunner(ex, sys.model)
	runner.BudgetBlocks = budgetBlocks
	return &tracedSession{
		sys: sys, ex: ex, runner: runner, meter: meter, tr: tr, lt: lt,
		opt: optimizer.New(sys.w.optimizerConfig(sys.seed)),
	}
}

func (ts *tracedSession) query(sp query.Spec) queryRecord {
	rec := queryRecord{label: sp.Label}
	seq := ts.seq
	ts.seq++
	root := ts.tr.begin("query", -1, 0, seq)
	t0 := time.Now()
	rec.err = ts.run(sp, seq, root, &rec)
	ts.ex.Nodes().Flush()
	rec.counters = ts.meter.Reset()
	rec.simS = rec.counters.SimSeconds(ts.sys.model)
	rec.ms = msSince(t0)
	ts.tr.end(root)
	return rec
}

// span times f as a child of parent; f gets the new span's id so it
// can nest further spans under it.
func (ts *tracedSession) span(name string, parent, seq int, f func(id int) error) error {
	id := ts.tr.begin(name, parent, 0, seq)
	err := f(id)
	ts.tr.end(id)
	return err
}

func (ts *tracedSession) run(sp query.Spec, seq, root int, rec *queryRecord) error {
	var bound *query.Bound
	if err := ts.span("query.bind", root, seq, func(int) (err error) {
		bound, err = sp.Bind(ts.sys.cat)
		return err
	}); err != nil {
		return err
	}
	if err := ts.span("optimizer.on_query", root, seq, func(int) (err error) {
		rec.adapt, err = ts.opt.OnQuery(bound.Uses(), ts.meter)
		return err
	}); err != nil {
		return fmt.Errorf("adapt %q: %w", sp.Label, err)
	}
	if ts.sys.cl != nil {
		return ts.runNet(bound, seq, root, rec)
	}
	comp, err := ts.compile(bound, root, seq)
	if err != nil {
		return fmt.Errorf("compile %q: %w", sp.Label, err)
	}
	ts.lt.addReport(comp.Report)
	err = ts.span("exec.drain", root, seq, func(int) (err error) {
		rec.rows, err = exec.Count(comp.Root) // what Stream does with a nil sink
		return err
	})
	ts.lt.addOps(comp.OpStats())
	if err != nil {
		return fmt.Errorf("execute %q: %w", sp.Label, err)
	}
	return nil
}

func (ts *tracedSession) compile(bound *query.Bound, parent, seq int) (comp *planner.Compiled, err error) {
	err = ts.span("planner.compile", parent, seq, func(int) (err error) {
		comp, err = ts.runner.CompileSpec(bound)
		return err
	})
	return comp, err
}

// runNet is the TCP path: dispatch, compile against the attempt's
// fabric, drain, collect the workers' reports; a transport failure
// retries on the surviving assignment, as the session does.
func (ts *tracedSession) runNet(bound *query.Bound, seq, root int, rec *queryRecord) error {
	cl := ts.sys.cl
	label := bound.Spec.Label
	for attemptN := 1; ; attemptN++ {
		var at *adbnet.Attempt
		if err := ts.span("net.dispatch", root, seq, func(int) (err error) {
			at, err = cl.Begin(bound.Spec, seq, ts.runner.LinkWeights)
			return err
		}); err != nil {
			return fmt.Errorf("dispatch %q: %w", label, err)
		}
		var comp *planner.Compiled
		if err := ts.span("net.fabric_compile", root, seq, func(id int) error {
			fb, err := at.Fabric(ts.ex)
			if err != nil {
				return err
			}
			ts.ex.SetFabric(fb)
			comp, err = ts.compile(bound, id, seq)
			ts.ex.SetFabric(nil)
			return err
		}); err != nil {
			at.Finish(err, ts.meter)
			return fmt.Errorf("compile %q: %w", label, err)
		}
		execErr := ts.span("net.drain", root, seq, func(id int) error {
			at.Start(context.Background())
			return ts.span("exec.drain", id, seq, func(int) error {
				rows, err := exec.Collect(comp.Root)
				rec.rows = len(rows)
				return err
			})
		})
		for _, st := range ts.meter.Links() {
			ts.lt.linkBytes += st.Bytes
			ts.lt.linkNanos += st.Nanos
		}
		finish := ts.tr.begin("net.finish", root, 0, seq)
		retry, ferr := at.Finish(execErr, ts.meter)
		ts.tr.end(finish)
		if execErr == nil && ferr == nil {
			ts.lt.addReport(comp.Report)
			ts.lt.addOps(comp.OpStats())
			break
		}
		if ferr == nil {
			ferr = execErr
		}
		if retry && attemptN < cl.MaxAttempts() {
			ts.lt.retries++
			continue
		}
		return fmt.Errorf("execute %q (attempt %d): %w", label, attemptN, ferr)
	}
	if w := cl.Weights(); w != nil {
		ts.runner.LinkWeights = w
	}
	return nil
}

// runTraced is runUntraced with spans. Session workloads go through
// tracedSession; the serving workload keeps Service.Stream as its
// front door and cuts each query's wall time into the parts
// serve.Result reports (admission wait, then everything after it).
func (s *system) runTraced(specs []query.Spec) (*runResult, *tracer, *layerTotals) {
	tr := newTracer()
	lt := &layerTotals{strategies: map[string]int{}}
	res := &runResult{}
	before := readRuntime()
	start := time.Now()
	if s.svc == nil {
		ts := newTracedSession(s, tr, lt)
		res.recs = make([]queryRecord, len(specs))
		for i, sp := range specs {
			res.recs[i] = ts.query(sp)
		}
	} else {
		res.recs = s.serveClients(specs, func(c, i int, sp query.Spec) queryRecord {
			root := tr.begin("query", -1, c, i)
			bindStart := time.Now()
			q, err := session.FromSpec(s.cat, sp)
			bound := time.Since(bindStart)
			tr.add("query.bind", root, 0, bound)
			rec := queryRecord{label: sp.Label, err: err}
			if err == nil {
				rec = s.serveStream(c, q)
				queued := time.Duration(rec.queuedMs * float64(time.Millisecond))
				tr.add("serve.admission_wait", root, bound, bound+queued)
				tr.add("serve.exec", root, bound+queued, bound+time.Duration(rec.ms*float64(time.Millisecond)))
			}
			rec.ms = msSince(bindStart)
			tr.end(root)
			return rec
		})
	}
	res.streamS = time.Since(start).Seconds()
	res.rt = readRuntime().since(before)
	return res, tr, lt
}
