// End-to-end tests of the TCP fabric: a session over real sockets must
// be bit-identical to the same stream over the in-process simulated
// fabric, at every node count, with and without worker death.
package net_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/exec/difftest"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func TestMain(m *testing.M) {
	datasets.Register()
	adbnet.MaybeWorker() // re-exec'd worker processes never return from this
	os.Exit(m.Run())
}

// rowsChecksum is the order-independent result digest (the serve-layer
// convention): the sum of per-row 64-bit FNV-1a hashes. Gather arrival
// order is nondeterministic on both fabrics, so digests must not
// depend on it.
func rowsChecksum(rows []tuple.Tuple) uint64 {
	var sum uint64
	var scratch []byte
	for _, r := range rows {
		scratch = r.AppendBinary(scratch[:0])
		h := fnv.New64a()
		h.Write(scratch)
		sum += h.Sum64()
	}
	return sum
}

// shiftSchedule is a compressed §7.3 join-attribute shift: orderkey
// phase (q5/q3) then partkey phase (q8/q14).
func shiftSchedule(n int) []tpch.Template {
	var out []tpch.Template
	for i := 0; i < n; i++ {
		out = append(out, []tpch.Template{tpch.Q5, tpch.Q3}[i%2])
	}
	for i := 0; i < n; i++ {
		out = append(out, []tpch.Template{tpch.Q8, tpch.Q14}[i%2])
	}
	return out
}

const (
	testSF   = 0.01
	testRPB  = 128
	testSeed = 42
)

func testParams(nodes int) datasets.TPCHParams {
	return datasets.TPCHParams{SF: testSF, RowsPerBlock: testRPB, Nodes: nodes, Seed: testSeed}
}

func testModel(nodes int) cluster.CostModel {
	m := cluster.Default()
	m.Nodes = nodes
	return m
}

// privateTemp points os.TempDir at a directory of this test's own for
// the rest of the test: workers (goroutines or spawned children, which
// inherit the environment) make their spill dirs there, and so does a
// session without a SpillDir, so no run observes or litters the temp
// dir other packages' tests share. Called before the cluster starts, so
// the cluster's cleanup runs before the directory's removal.
func privateTemp(t *testing.T) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
}

// startTPCH starts a cluster and builds the coordinator's session over
// its own replica of the same dataset.
func startTPCH(t *testing.T, workers, nodes int, inProcess bool) (*adbnet.Cluster, *session.Session, query.Catalog, *tpch.Dataset) {
	t.Helper()
	cl := startCluster(t, workers, nodes, inProcess)
	store, data, tables, err := datasets.BuildTPCH(testParams(nodes))
	if err != nil {
		t.Fatalf("build coordinator replica: %v", err)
	}
	s := session.New(store, session.Config{
		Model:     testModel(nodes),
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: testSeed},
		Net:       cl,
	})
	return cl, s, tables.Catalog(), data
}

// startCluster starts the adaptive TPC-H worker fleet startTPCH
// drives, in a private temp dir.
func startCluster(t *testing.T, workers, nodes int, inProcess bool) *adbnet.Cluster {
	t.Helper()
	privateTemp(t)
	p := testParams(nodes)
	cl, err := adbnet.Start(adbnet.Options{
		Workers:   workers,
		Fragments: nodes,
		Dataset:   datasets.TPCHName,
		Params:    p,
		Exec: adbnet.ExecConfig{
			Model:     testModel(nodes),
			Optimizer: adbnet.OptimizerConfig{Mode: int(optimizer.ModeAdaptive), WindowSize: 5, Seed: testSeed},
		},
		InProcess: inProcess,
		KeepAlive: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// simDigests replays the schedule over the in-process simulated fabric
// (a fresh identical store) — the oracle every TCP run must match.
func simDigests(t *testing.T, nodes int, schedule []tpch.Template) []uint64 {
	t.Helper()
	sums, _, _ := simResults(t, nodes, schedule)
	return sums
}

// simResults is simDigests plus each query's row count and result.
func simResults(t *testing.T, nodes int, schedule []tpch.Template) ([]uint64, []int, []*session.Result) {
	t.Helper()
	store, data, tables, err := datasets.BuildTPCH(testParams(nodes))
	if err != nil {
		t.Fatalf("build sim replica: %v", err)
	}
	s := session.New(store, session.Config{
		Model:       testModel(nodes),
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: testSeed},
		Distributed: nodes > 1,
	})
	cat := tables.Catalog()
	rng := rand.New(rand.NewSource(testSeed))
	out := make([]uint64, 0, len(schedule))
	counts := make([]int, 0, len(schedule))
	var results []*session.Result
	for qi, tpl := range schedule {
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("sim q%d (%s): %v", qi, tpl, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("sim q%d (%s): %v", qi, tpl, err)
		}
		out = append(out, rowsChecksum(res.Rows))
		counts = append(counts, len(res.Rows))
		res.Rows = nil
		results = append(results, res)
	}
	return out, counts, results
}

// TestTCPSessionMatchesSim is the tentpole assertion: the adaptive
// TPC-H stream over real sockets, two cycles of the join-attribute
// shift, is bit-identical to the simulated fabric at 1, 4, and 8
// fragments, and reports what the simulated session reports: the
// adaptation, the join report and every operator's rows, which the
// coordinator merges from the workers. Above one fragment, where both
// fabrics drive their exchanges through one producer, each query also
// meters the same local and remote rows, wire bytes and filter drops,
// and prices the same simulated seconds, bit for bit; its shuffle,
// semi-shuffle and hyper joins cover the hash, broadcast, deal and
// global-shuffle routes. The coordinator adapts nothing: its tables
// end with the trees and blocks they were loaded with.
func TestTCPSessionMatchesSim(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	schedule := append(shiftSchedule(3), shiftSchedule(3)...)
	exch := func(c cluster.Counters) [4]float64 {
		return [4]float64{c.ExchLocalRows, c.ExchRemoteRows, c.ExchBytes, c.ExchFilteredRows}
	}
	for _, nodes := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			want, _, sims := simResults(t, nodes, schedule)
			cl, s, cat, data := startTPCH(t, nodes, nodes, true)
			loaded := layoutOf(cat)
			adapted := false
			rng := rand.New(rand.NewSource(testSeed))
			for qi, tpl := range schedule {
				q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
				if err != nil {
					t.Fatalf("tcp q%d (%s): %v", qi, tpl, err)
				}
				res, err := s.Execute(q)
				if err != nil {
					t.Fatalf("tcp q%d (%s): %v", qi, tpl, err)
				}
				if got := rowsChecksum(res.Rows); got != want[qi] {
					t.Fatalf("q%d (%s): tcp checksum %016x != sim %016x (%d rows)", qi, tpl, got, want[qi], res.RowCount)
				}
				if got, sim := exch(res.Counters), exch(sims[qi].Counters); nodes > 1 && got != sim {
					t.Fatalf("q%d (%s): tcp metered local, remote rows, bytes, dropped rows %v; sim %v", qi, tpl, got, sim)
				}
				if err := difftest.SameOutcome(fmt.Sprintf("q%d (%s)", qi, tpl), res, sims[qi], nodes > 1); err != nil {
					t.Fatal(err)
				}
				adapted = adapted || res.Adapt.Adapted()
			}
			if !adapted {
				t.Fatal("the stream never adapted: the comparison proves nothing about the adaptation records")
			}
			if got := layoutOf(cat); got != loaded {
				t.Fatalf("the coordinator's tables changed:\n%s\nloaded as:\n%s", got, loaded)
			}
			if live := cl.LiveWorkers(); live != nodes {
				t.Fatalf("expected %d live workers, have %d", nodes, live)
			}
		})
	}
}

// layoutOf renders every table's live trees and blocks (tree, bucket,
// rows, path, node) in catalog order.
func layoutOf(cat query.Catalog) string {
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		tbl := cat[name]
		fmt.Fprintf(&sb, "%s trees %v\n", name, tbl.LiveTrees())
		for _, ref := range tbl.AllRefs(nil) {
			fmt.Fprintf(&sb, "  %d/%d %d rows %s @%d\n", ref.TreeIdx, ref.Bucket, ref.Count, ref.Path, ref.Node)
		}
	}
	return sb.String()
}

// TestTCPFailover kills a worker mid-query (the kill fault on its Nth
// data frame) and asserts the query still completes — on a surviving
// replica — with the simulated fabric's exact checksum.
func TestTCPFailover(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	schedule := []tpch.Template{tpch.Q5, tpch.Q3, tpch.Q5}
	want := simDigests(t, nodes, schedule)

	cl, s, cat, data := startTPCH(t, nodes, nodes, true)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		if qi == 1 {
			// Worker 2 dies on its 2nd data frame of this query.
			cl.ArmFault(&adbnet.FaultPlan{Proc: 2, Peer: -1, Msg: "data", After: 2, Kind: adbnet.FaultKill})
		}
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			t.Fatalf("q%d (%s): checksum %016x != sim %016x (%d rows)", qi, tpl, got, want[qi], res.RowCount)
		}
	}
	if live := cl.LiveWorkers(); live != nodes-1 {
		t.Fatalf("expected %d live workers after the kill, have %d", nodes-1, live)
	}
	cl.Close() // before the deferred leak check (t.Cleanup runs after it)
}

// TestTCPStreamSinkFailover streams each query into a sink while a
// worker is killed mid-query. The sink must see exactly the successful
// attempt's rows, none of the failed attempt's: its row count and
// checksum, and the result's RowCount, equal the simulated session's.
func TestTCPStreamSinkFailover(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	schedule := []tpch.Template{tpch.Q5, tpch.Q3, tpch.Q5}
	want, counts, _ := simResults(t, nodes, schedule)

	cl, s, cat, data := startTPCH(t, nodes, nodes, true)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		if qi == 1 {
			cl.ArmFault(&adbnet.FaultPlan{Proc: 2, Peer: -1, Msg: "data", After: 2, Kind: adbnet.FaultKill})
		}
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		var rows []tuple.Tuple
		res, err := s.Stream(q, func(b *exec.Batch) error {
			rows = append(rows, b.Rows()...)
			return nil
		})
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if len(rows) != counts[qi] || res.RowCount != counts[qi] {
			t.Fatalf("q%d (%s): sink saw %d rows, RowCount %d, sim %d", qi, tpl, len(rows), res.RowCount, counts[qi])
		}
		if got := rowsChecksum(rows); got != want[qi] {
			t.Fatalf("q%d (%s): sink checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
		if res.Rows != nil {
			t.Fatalf("q%d (%s): Stream materialized rows", qi, tpl)
		}
	}
	if live := cl.LiveWorkers(); live != nodes-1 {
		t.Fatalf("expected %d live workers after the kill, have %d", nodes-1, live)
	}
	cl.Close() // before the deferred leak check (t.Cleanup runs after it)
}

// TestTCPRealProcesses runs the differential through genuinely spawned
// worker processes — the re-exec path CI's smoke job drives.
func TestTCPRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	schedule := []tpch.Template{tpch.Q5, tpch.Q3}
	want := simDigests(t, nodes, schedule)
	cl, s, cat, data := startTPCH(t, nodes, nodes, false)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			t.Fatalf("q%d (%s): tcp checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
	}
	cl.Close() // before the deferred leak check (t.Cleanup runs after it)
}

// startSweep is startTPCH with tight memory budgets (so spill paths run
// under the faults too) and an observable coordinator spill dir.
func startSweep(t *testing.T, workers, nodes int) (*adbnet.Cluster, *session.Session, query.Catalog, *tpch.Dataset) {
	t.Helper()
	privateTemp(t)
	const memBudget = 1 << 20
	p := testParams(nodes)
	cl, err := adbnet.Start(adbnet.Options{
		Workers:   workers,
		Fragments: nodes,
		Dataset:   datasets.TPCHName,
		Params:    p,
		Exec: adbnet.ExecConfig{
			Model:     testModel(nodes),
			MemBudget: memBudget,
			Optimizer: adbnet.OptimizerConfig{Mode: int(optimizer.ModeAdaptive), WindowSize: 5, Seed: testSeed},
		},
		InProcess: true,
		KeepAlive: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	store, data, tables, err := datasets.BuildTPCH(p)
	if err != nil {
		t.Fatalf("build coordinator replica: %v", err)
	}
	s := session.New(store, session.Config{
		Model:     testModel(nodes),
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: testSeed},
		MemBudget: memBudget,
		SpillDir:  t.TempDir(),
		Net:       cl,
	})
	return cl, s, tables.Catalog(), data
}

// TestTCPFaultSweep drives every fault kind through every protocol
// point (the Nth data / eos / credit / qdone frame a worker writes
// toward the coordinator) and pins the fault contract: each injected
// fault either surfaces an error or the query transparently retries on
// a replica with the simulated fabric's exact checksum — and after
// every successful query the coordinator's memory budget is fully
// released and its spill dir is empty. A clean query closes each sweep
// to prove the cluster still works on the survivors.
func TestTCPFaultSweep(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const (
		nodes   = 4
		workers = 5 // one spare beyond the four fault targets
	)
	schedule := []tpch.Template{tpch.Q5, tpch.Q3, tpch.Q14, tpch.Q5, tpch.Q3}
	want := simDigests(t, nodes, schedule)
	points := []struct {
		msg   string
		after int
	}{{"data", 2}, {"eos", 1}, {"credit", 1}, {"qdone", 1}}

	for _, kind := range []string{adbnet.FaultReset, adbnet.FaultPartial, adbnet.FaultStall, adbnet.FaultKill} {
		t.Run(kind, func(t *testing.T) {
			cl, s, cat, data := startSweep(t, workers, nodes)
			spill := s.Executor().SpillDir
			rng := rand.New(rand.NewSource(testSeed))
			for qi, tpl := range schedule {
				if qi < len(points) {
					cl.ArmFault(&adbnet.FaultPlan{
						Proc: qi + 1, Peer: 0,
						Msg: points[qi].msg, After: points[qi].after, Kind: kind,
					})
				}
				q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
				if err != nil {
					t.Fatalf("q%d (%s): %v", qi, tpl, err)
				}
				res, err := s.Execute(q)
				if err != nil {
					// A surfaced error is an accepted outcome for an
					// injected fault — never for the closing clean query.
					if qi >= len(points) {
						t.Fatalf("clean query after the sweep failed: %v", err)
					}
					t.Logf("q%d %s@%s: surfaced: %v", qi, kind, points[qi].msg, err)
					continue
				}
				if got := rowsChecksum(res.Rows); got != want[qi] {
					t.Fatalf("q%d (%s): checksum %016x != sim %016x", qi, tpl, got, want[qi])
				}
				if used := s.Executor().Mem.Used(); used != 0 {
					t.Fatalf("q%d: %d bytes still charged to the memory budget", qi, used)
				}
				if ents, err := os.ReadDir(spill); err != nil || len(ents) != 0 {
					t.Fatalf("q%d: spill dir not empty after query: %d entries (%v)", qi, len(ents), err)
				}
			}
			cl.Close() // before the parent's deferred leak check
		})
	}
}

// TestTCPLostQueryWrite resets the coordinator's connection to one
// worker as the query message is written to it. The lost dispatch must
// fail over like a lost stream — the query completes on the survivors
// with the simulated fabric's checksum, or surfaces a typed NetError —
// never hang, and leave the budget, the pooled wire buffers and the
// goroutines back at zero.
func TestTCPLostQueryWrite(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	schedule := []tpch.Template{tpch.Q5, tpch.Q3}
	want := simDigests(t, nodes, schedule)
	cl, s, cat, data := startSweep(t, nodes, nodes)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		if qi == 0 {
			cl.ArmFault(&adbnet.FaultPlan{Proc: 0, Peer: 2, Msg: "query", After: 1, Kind: adbnet.FaultReset})
		}
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		done := make(chan struct{})
		var res *session.Result
		go func() {
			defer close(done)
			res, err = s.Execute(q)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("q%d (%s): the coordinator hung", qi, tpl)
		}
		if err != nil {
			if qi > 0 || !adbnet.IsNetError(err) {
				t.Fatalf("q%d (%s): %v", qi, tpl, err)
			}
			t.Logf("q%d: surfaced: %v", qi, err)
			continue
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			t.Fatalf("q%d (%s): checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
		if used := s.Executor().Mem.Used(); used != 0 {
			t.Fatalf("q%d: %d bytes still charged to the memory budget", qi, used)
		}
	}
	if live := cl.LiveWorkers(); live != nodes-1 {
		t.Fatalf("expected %d live workers after the reset, have %d", nodes-1, live)
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for adbnet.FrameBufsOut() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled wire buffers still checked out after Close", adbnet.FrameBufsOut())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPLostQDoneWrite fails a worker's completion report: its qdone
// write resets the link after every data frame it owed has gone out.
// The query must end in a typed NetError or the simulated fabric's
// result — never a coordinator waiting on a report that will not come —
// and the next query must run exactly on the survivors. The queries
// stream with no sink, so the coordinator counts rows instead of
// materializing them; the count must match the oracle's.
func TestTCPLostQDoneWrite(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	schedule := []tpch.Template{tpch.Q5, tpch.Q3}
	_, want, _ := simResults(t, nodes, schedule)
	cl, s, cat, data := startSweep(t, nodes, nodes)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		if qi == 0 {
			cl.ArmFault(&adbnet.FaultPlan{Proc: 2, Peer: 0, Msg: "qdone", After: 1, Kind: adbnet.FaultReset})
		}
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		done := make(chan struct{})
		var res *session.Result
		go func() {
			defer close(done)
			res, err = s.Stream(q, nil)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("q%d (%s): the coordinator hung on a lost completion report", qi, tpl)
		}
		if err != nil {
			if qi > 0 || !adbnet.IsNetError(err) {
				t.Fatalf("q%d (%s): %v", qi, tpl, err)
			}
			t.Logf("q%d: surfaced: %v", qi, err)
			continue
		}
		if res.Rows != nil {
			t.Fatalf("q%d: a sinkless stream materialized %d rows", qi, len(res.Rows))
		}
		if res.RowCount != want[qi] {
			t.Fatalf("q%d (%s): counted %d rows, sim %d", qi, tpl, res.RowCount, want[qi])
		}
		if used := s.Executor().Mem.Used(); used != 0 {
			t.Fatalf("q%d: %d bytes still charged to the memory budget", qi, used)
		}
	}
	if live := cl.LiveWorkers(); live != nodes-1 {
		t.Fatalf("expected %d live workers after the lost report, have %d", nodes-1, live)
	}
	cl.Close()
}

// TestTCPUnsendableQuery dispatches a spec whose constant JSON cannot
// encode (NaN). The query write fails on a connection that stays up, so
// no death notice ever fails the attempt over: the failure must come
// back from Begin as a typed NetError instead of a coordinator waiting
// on workers that never got the query. The cluster keeps every worker
// and answers the next query exactly.
func TestTCPUnsendableQuery(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 2
	schedule := []tpch.Template{tpch.Q3, tpch.Q5}
	want := simDigests(t, nodes, schedule)
	cl, s, cat, data := startSweep(t, nodes, nodes)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		spec := tpch.NewInstance(tpl, data, rng).Spec()
		if qi == 0 {
			spec.Tables[0].Preds = append(spec.Tables[0].Preds,
				query.Cmp("l_extendedprice", predicate.NE, value.NewFloat(math.NaN())))
		}
		q, err := session.FromSpec(cat, spec)
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		done := make(chan struct{})
		var res *session.Result
		go func() {
			defer close(done)
			res, err = s.Execute(q)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("q%d (%s): the coordinator hung", qi, tpl)
		}
		if qi == 0 {
			if !adbnet.IsNetError(err) {
				t.Fatalf("unsendable query: got %v, want a NetError", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			t.Fatalf("q%d (%s): checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
	}
	if live := cl.LiveWorkers(); live != nodes {
		t.Fatalf("a failed dispatch cost workers: %d of %d live", live, nodes)
	}
	cl.Close()
}

// TestTCPFewerWorkersThanFragments covers the round-robin assignment:
// 8 fragments over 3 workers.
func TestTCPFewerWorkersThanFragments(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 8
	schedule := []tpch.Template{tpch.Q3, tpch.Q14}
	want := simDigests(t, nodes, schedule)
	cl, s, cat, data := startTPCH(t, 3, nodes, true)
	rng := rand.New(rand.NewSource(testSeed))
	for qi, tpl := range schedule {
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			t.Fatalf("q%d (%s): checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
	}
	cl.Close() // before the deferred leak check (t.Cleanup runs after it)
}
