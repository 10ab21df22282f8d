package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"adaptdb/internal/planner"
	"adaptdb/internal/query"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// putFunc records one named metric.
type putFunc func(name string, v float64, unit string)

// printInto returns a putFunc that prints the metric and stores it. A
// ratio whose denominator was zero (no adaptation, no cache lookups)
// is reported as 0.
func printInto(out io.Writer, into map[string]metric) putFunc {
	return func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		into[name] = metric{v, unit}
		fmt.Fprintf(out, "%-32s %16.4f %s\n", name, v, unit)
	}
}

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, and the last instance is the one the timed phase uses.
const setupRepeats = 3

// options are a run's settings besides the workload.
type options struct {
	seed     int64
	traced   bool
	traceOut string
	tmp      string    // base directory for spill files
	out      io.Writer // the human-readable report
	probes   probeConfig
}

// runWorkload is one benchmark run: set up, time the schedule through
// the public front door, verify, and print the end-to-end metrics; with
// opt.traced, also run the traced pass and the layer probes and put the
// per-layer metrics in the result instead.
func runWorkload(w workload, opt options) (*result, error) {
	procs := pinProcs()
	spill, fsName, cleanup, err := makeSpillDir(opt.tmp)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fmt.Fprintf(opt.out, "# bench %s seed=%d trace=%v queries=%dx%d sf=%g at=%s\n",
		w.name, opt.seed, opt.traced, max(w.clients, 1), w.queries(), w.sf, time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintf(opt.out, "# noise controls: %s nproc=%d GOMAXPROCS=%d, one process per workload, GC before the timed phase, in-process TCP workers, TMPDIR=%s (%s)\n",
		runtime.Version(), runtime.NumCPU(), procs, spill, fsName)

	var setups []float64
	var sys *system
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		if sys, err = setup(w, opt.seed, spill, true); err != nil {
			return nil, err
		}
		setups = append(setups, sys.setupS)
	}
	defer sys.close()
	specs := w.schedule(sys.data, opt.seed)
	run := sys.runUntraced(specs)
	rss := peakRSSMB()

	res := &result{Attempted: len(run.recs), Failed: run.failed()}
	for i := range run.recs {
		if err := run.recs[i].err; err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s #%d: %v\n", run.recs[i].label, i, err)
		}
	}
	pinned, err := checkGolden(w, digestRows(opt.seed, len(specs), run.recs, sys.svc != nil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		res.Failed++
	}
	or, err := newOracle(w, opt.seed, spill)
	if err != nil {
		return nil, err
	}
	bad, err := sys.verifySample(specs, run, or)
	if err != nil {
		return nil, err
	}
	res.Failed += bad
	fmt.Fprintf(opt.out, "# verified %d of %d queries against the static centralized oracle; golden row digest pinned for this seed: %v\n",
		(len(specs)+sampleStride/2)/sampleStride, len(specs), pinned)

	res.Metrics = map[string]metric{}
	put := printInto(opt.out, res.Metrics)
	lat := run.latencies()
	put("setup_s", median(setups), "s")
	put("stream_s", run.streamS, "s")
	put("query_ms_p50", median(lat), "ms")
	put("query_ms_tail10", tailMean(lat), "ms")
	put("sim_s", run.simSeconds(), "sim-s")
	put("peak_rss_mb", rss, "MB")

	if opt.traced {
		// Free the untraced system and the oracle first: more loaded
		// stores would change the collector's pacing under the traced
		// pass.
		sys.close()
		*sys, or = system{}, nil
		res.Metrics = map[string]metric{}
		bad, err := tracedPass(w, opt, spill, specs, run, printInto(opt.out, res.Metrics))
		if err != nil {
			return nil, err
		}
		res.Failed += bad
	}
	fmt.Fprintf(opt.out, "%-32s %16.6f fraction (%d of %d)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// compareRuns checks that two passes over one schedule returned the
// same rows query by query and priced the same simulated time. Row
// counts are exact; simulated seconds get a tolerance where thread
// interleaving legitimately moves them (spill demotion order, two
// tenants racing to adapt).
func compareRuns(what string, w workload, a, b *runResult) (bad int) {
	for i := range a.recs {
		if a.recs[i].rows != b.recs[i].rows || (a.recs[i].err == nil) != (b.recs[i].err == nil) {
			fmt.Fprintf(os.Stderr, "bench: %s #%d: %s returned %d rows (err %v), untraced pass %d\n",
				a.recs[i].label, i, what, b.recs[i].rows, b.recs[i].err, a.recs[i].rows)
			bad++
		}
	}
	tol := 1e-9
	switch {
	case w.clients > 0:
		tol = 0.10
	case w.mem > 0:
		tol = 0.02
	}
	if sa, sb := a.simSeconds(), b.simSeconds(); math.Abs(sa-sb) > tol*sa {
		fmt.Fprintf(os.Stderr, "bench: %s priced %.3f sim-s, untraced pass %.3f\n", what, sb, sa)
		bad++
	}
	return bad
}

// tracedPass reruns the schedule on a fresh system with spans around
// the calls into each layer, checks that it did what the untraced pass
// did, runs the layer probes, and reports the per-layer metrics. It
// returns the number of disagreements.
func tracedPass(w workload, opt options, spill string, specs []query.Spec, un *runResult, put putFunc) (bad int, err error) {
	runtime.GC()
	sys, err := setup(w, opt.seed, spill, false)
	if err != nil {
		return 0, err
	}
	tr, spans, lt := sys.runTraced(specs)
	adm := sys.admissionStats()
	sys.close()
	// Keep the set-up timings, drop the store.
	*sys = system{generateS: sys.generateS, loadS: sys.loadS, netStartS: sys.netStartS}
	if opt.traceOut != "" {
		if err := spans.writeTo(opt.traceOut); err != nil {
			return 0, err
		}
	}
	bad = compareRuns("traced pass", w, un, tr)

	tcpOverSim := 0.0
	if w.tcp {
		// The same schedule on the simulated fabric, in this process: the
		// ratio is what the transport costs, and the two must agree query
		// by query.
		sw := w
		sw.tcp = false
		ssys, err := setup(sw, opt.seed, spill, true)
		if err != nil {
			return bad, err
		}
		sim := ssys.runUntraced(specs)
		tcpOverSim = un.streamS / sim.streamS
		bad += compareRuns("simulated fabric", w, un, sim)
	}

	fmt.Fprintln(opt.out, "# per-layer metrics: traced pass, then layer probes")
	phases := 2 * w.cycles * max(w.clients, 1)
	sumMs := func(name string) float64 { return sum(spans.durations(name)) }

	put("tpch.generate_s", sys.generateS, "s")
	put("tpch.load_s", sys.loadS, "s")
	put("net.start_s", sys.netStartS, "s")
	put("query.bind_us_p50", 1e3*median(spans.durations("query.bind")), "us")

	// Adaptation. A query adapts when its optimizer step moved rows or
	// created a tree; convergence is how far into a phase the last such
	// query sits.
	var adaptMs []float64
	onQuery := spans.durations("optimizer.on_query")
	moved, trees, adapting, lastAdapt := 0, 0, 0, 0.0
	last := make([]int, phases)
	for i, rec := range tr.recs {
		moved += rec.adapt.MovedRows
		trees += rec.adapt.CreatedTrees
		if rec.adapt.Adapted() {
			adapting++
			last[i/w.perPhase] = i%w.perPhase + 1
			if i < len(onQuery) {
				adaptMs = append(adaptMs, onQuery[i])
			}
		}
	}
	for _, l := range last {
		lastAdapt += float64(l)
	}
	adaptS := sum(onQuery) / 1e3
	put("optimizer.adapt_s", adaptS, "s")
	put("optimizer.adapt_ms_p90", quantile(adaptMs, 0.9), "ms")
	put("optimizer.adapting_queries", float64(adapting), "count")
	put("optimizer.moved_rows", float64(moved), "rows")
	put("optimizer.trees_created", float64(trees), "count")
	put("optimizer.moved_rows_per_s", float64(moved)/adaptS, "rows/s")
	put("optimizer.converge_queries", lastAdapt/float64(phases), "queries")

	compile := spans.durations("planner.compile")
	put("planner.compile_s", sum(compile)/1e3, "s")
	put("planner.compile_ms_p50", median(compile), "ms")
	put("planner.strategy_hyper", float64(lt.strategies[planner.StratHyper]), "count")
	put("planner.strategy_shuffle", float64(lt.strategies[planner.StratShuffle]), "count")
	put("planner.strategy_semi_shuffle", float64(lt.strategies[planner.StratSemiShuffle]), "count")
	put("planner.strategy_combination", float64(lt.strategies[planner.StratCombination]), "count")

	put("exec.drain_s", sumMs("exec.drain")/1e3, "s")
	put("exec.scan_busy_s", float64(lt.scanBusyNs)/1e9, "s")
	put("exec.scan_rows", float64(lt.scanRows), "rows")
	put("exec.join_incl_busy_s", float64(lt.joinBusyNs)/1e9, "s")
	put("exec.join_out_rows", float64(lt.joinOutRows), "rows")
	put("exec.groupby_incl_busy_s", float64(lt.groupByBusyNs)/1e9, "s")
	put("exec.spilled_mb", float64(lt.spilledBytes)/1e6, "MB")

	var c, queuedMs, hits, misses = tr.recs[0].counters, []float64(nil), 0, 0
	for i, rec := range tr.recs {
		if i > 0 {
			c.Add(rec.counters)
		}
		queuedMs = append(queuedMs, rec.queuedMs)
		hits += rec.cacheHit
		misses += rec.cacheMiss
	}
	put("cluster.scan_rows", c.ScanLocal+c.ScanRemote, "rows")
	put("cluster.exch_remote_rows", c.ExchRemoteRows, "rows")
	put("cluster.exch_mb", c.ExchBytes/1e6, "MB")
	put("cluster.spill_mb", c.SpillBytes/1e6, "MB")
	put("cluster.spill_skipped_rows", c.SpillSkippedRows, "rows")
	put("cluster.repart_rows", c.RepartRows, "rows")
	put("cluster.blocks_scanned", float64(c.BlocksScanned), "count")

	put("net.dispatch_ms_p50", median(spans.durations("net.dispatch")), "ms")
	put("net.fabric_compile_ms_p50", median(spans.durations("net.fabric_compile")), "ms")
	put("net.drain_s", sumMs("net.drain")/1e3, "s")
	put("net.finish_ms_p50", median(spans.durations("net.finish")), "ms")
	put("net.link_mb", lt.linkBytes/1e6, "MB")
	put("net.link_write_s", lt.linkNanos/1e9, "s")
	put("net.retries", float64(lt.retries), "count")
	put("net.tcp_over_sim", tcpOverSim, "ratio")

	put("serve.admission_wait_s", sum(queuedMs)/1e3, "s")
	put("serve.admission_wait_ms_p90", quantile(queuedMs, 0.9), "ms")
	put("serve.queued_frac", float64(adm.Queued)/float64(adm.Admitted), "fraction")
	put("serve.shed", float64(adm.Shed+adm.Rejected), "count")
	put("serve.cache_hit_frac", float64(hits)/float64(hits+misses), "fraction")
	put("serve.exec_ms_p50", median(spans.durations("serve.exec")), "ms")
	bumps := 0 // adaptation bumps the plan cache's epochs only where there is one
	if w.clients > 0 {
		bumps = adapting
	}
	put("serve.adapt_bumps", float64(bumps), "count")

	// Resource use of the untraced pass: what the end-to-end numbers
	// were measured under.
	put("runtime.cpu_s", un.rt.cpuS, "s")
	put("runtime.alloc_mb_per_query", un.rt.allocBytes/1e6/float64(len(un.recs)), "MB")
	put("runtime.gc_cpu_frac", un.rt.gcCPUS/un.rt.cpuS, "fraction")
	put("runtime.num_gc", un.rt.numGC, "count")
	put("session.query_ms_p90", quantile(un.latencies(), 0.9), "ms")
	put("trace.overhead_frac", tr.streamS/un.streamS-1, "fraction")
	coverage := spans.coverage()
	put("trace.span_coverage", coverage, "fraction")
	if coverage < 0.9 {
		fmt.Fprintf(os.Stderr, "bench: spans cover %.3f of the traced stream, want at least 0.9\n", coverage)
		bad++
	}
	return bad, runProbes(opt.probes, spill, put)
}
