package net_test

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/value"
)

// TestCoordinatorHostsOnlyTheRootGather drives the adaptive shift, 2:1
// heavy:light in phases of six, over four workers attempt by attempt, as
// the session does, until its plans have held a hyper-join under a
// semi-shuffle and a combination join (the 21st query).
// For every query the coordinator's fabric registers no pump, its own
// meter reads no block and moves no exchange row before Finish merges
// the workers' counters, and the answer matches the simulated session.
func TestCoordinatorHostsOnlyTheRootGather(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	var schedule []tpch.Template
	for c := 0; c < 2; c++ {
		for _, tpls := range [][]tpch.Template{{tpch.Q5, tpch.Q5, tpch.Q3}, {tpch.Q8, tpch.Q8, tpch.Q14}} {
			for i := 0; i < 6; i++ {
				schedule = append(schedule, tpls[i%3])
			}
		}
	}
	want := simDigests(t, nodes, schedule)
	cl := startCluster(t, nodes, nodes, true)
	store, data, tables, err := datasets.BuildTPCH(testParams(nodes))
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(store, &cluster.Meter{})
	ex.EnableNodes(0)
	r := planner.NewRunner(ex, testModel(nodes))
	opt := optimizer.New(optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: testSeed})
	rng := rand.New(rand.NewSource(testSeed))
	var hyperUnderSemi, combination bool
	for qi, tpl := range schedule {
		spec := tpch.NewInstance(tpl, data, rng).Spec()
		b, err := spec.Bind(tables.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		at, err := cl.Begin(spec, qi, r.LinkWeights)
		if err != nil {
			t.Fatalf("q%d (%s): %v", qi, tpl, err)
		}
		if _, err := opt.OnQuery(b.Uses(), &cluster.Meter{}); err != nil {
			t.Fatal(err)
		}
		fb, err := at.Fabric(ex)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetFabric(fb)
		c, err := r.CompileSpec(b)
		ex.SetFabric(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := adbnet.Pumps(fb); n != 0 {
			t.Fatalf("q%d (%s): the coordinator registered %d pumps", qi, tpl, n)
		}
		at.Start(context.Background())
		rows, err := exec.Collect(c.Root)
		ex.Nodes().Flush()
		own := ex.Meter.Reset()
		if _, ferr := at.Finish(err, ex.Meter); err != nil || ferr != nil {
			t.Fatalf("q%d (%s): drain %v, finish %v", qi, tpl, err, ferr)
		}
		if own.BlocksScanned != 0 || own.ProbeBlocks != 0 || own.ScanLocal+own.ScanRemote+own.BuildLocal+own.BuildRemote+
			own.ProbeLocal+own.ProbeRemote+own.ExchLocalRows+own.ExchRemoteRows != 0 {
			t.Fatalf("q%d (%s): the coordinator's own meter read blocks or moved rows: %+v", qi, tpl, own)
		}
		if merged := ex.Meter.Reset(); merged.BlocksScanned == 0 {
			t.Fatalf("q%d (%s): Finish merged no block reads from the workers", qi, tpl)
		}
		if got := rowsChecksum(rows); got != want[qi] {
			t.Fatalf("q%d (%s): tcp checksum %016x != sim %016x", qi, tpl, got, want[qi])
		}
		if w := cl.Weights(); w != nil {
			r.LinkWeights = w
		}
		joins := c.Report.Joins
		for k, j := range joins {
			// Specs compile left-deep: every later join reads the first.
			hyperUnderSemi = hyperUnderSemi || k > 0 && joins[0].Strategy == planner.StratHyper && j.Strategy == planner.StratSemiShuffle
			combination = combination || j.Strategy == planner.StratCombination
		}
		if hyperUnderSemi && combination {
			break
		}
	}
	if !hyperUnderSemi || !combination {
		t.Fatalf("the schedule's plans held a hyper-join under a semi-shuffle: %v; a combination join: %v", hyperUnderSemi, combination)
	}
	cl.Close() // before the deferred leak check (t.Cleanup runs after it)
}

// TestTCPHyperFragmentWithoutGroups runs, once a few order-key queries
// have given lineitem and orders trees on the order key, a budgeted
// hyper-join whose groups start on fewer nodes than the cluster has
// workers, one fragment each: at least one worker's fragment holds none
// of its groups and ends at once. The answers match the
// simulated fabric, and the budget, the spill dir and the goroutines
// are back at zero.
func TestTCPHyperFragmentWithoutGroups(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	const nodes = 4
	const maxKey = 40
	narrow := query.Spec{
		Label: "narrow",
		Tables: []query.TableRef{
			query.T("lineitem", query.Cmp("l_orderkey", predicate.LT, value.NewInt(maxKey))),
			query.T("orders", query.Cmp("o_orderkey", predicate.LT, value.NewInt(maxKey))),
		},
		Joins: []query.JoinEdge{query.On(query.C("lineitem", "l_orderkey"), query.C("orders", "o_orderkey"))},
	}
	specs := func(data *tpch.Dataset) []query.Spec {
		rng := rand.New(rand.NewSource(testSeed))
		var out []query.Spec
		for _, tpl := range []tpch.Template{tpch.Q5, tpch.Q5, tpch.Q3, tpch.Q5, tpch.Q5} {
			out = append(out, tpch.NewInstance(tpl, data, rng).Spec())
		}
		return append(out, narrow)
	}
	run := func(s *session.Session, cat query.Catalog, data *tpch.Dataset) []*session.Result {
		var out []*session.Result
		for qi, spec := range specs(data) {
			q, err := session.FromSpec(cat, spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Execute(q)
			if err != nil {
				t.Fatalf("q%d (%s): %v", qi, spec.Label, err)
			}
			out = append(out, res)
		}
		return out
	}

	store, data, tables, err := datasets.BuildTPCH(testParams(nodes))
	if err != nil {
		t.Fatal(err)
	}
	want := run(session.New(store, session.Config{
		Model:       testModel(nodes),
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: testSeed},
		Distributed: true,
	}), tables.Catalog(), data)

	cl, s, cat, data := startSweep(t, nodes, nodes)
	got := run(s, cat, data)
	for qi, res := range got {
		if rowsChecksum(res.Rows) != rowsChecksum(want[qi].Rows) {
			t.Fatalf("q%d: tcp %d rows (checksum %016x), sim %d (%016x)", qi, res.RowCount, rowsChecksum(res.Rows),
				len(want[qi].Rows), rowsChecksum(want[qi].Rows))
		}
	}
	last := got[len(got)-1]
	if len(last.Report.Joins) != 1 || last.Report.Joins[0].Strategy != planner.StratHyper || last.RowCount == 0 {
		t.Fatalf("want one hyper-join with rows, got %+v (%d rows)", last.Report.Joins, last.RowCount)
	}
	// The simulated session's store went through the adaptation every
	// worker replica did; the coordinator's replica never adapts.
	b, err := narrow.Bind(tables.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	// The schedule the planner runs: the co-partitioned refs, built on
	// the side with fewer rows, grouped under the runner's default budget
	// of 4 blocks. Each group runs on the node holding its first build
	// block.
	var refs [2][]core.BlockRef
	var rows [2]int
	cols := [2]int{b.Joins[0].LCols[0], b.Joins[0].RCols[0]}
	if b.Joins[0].L != 0 {
		cols[0], cols[1] = cols[1], cols[0]
	}
	for i, bt := range b.Tables {
		refs[i] = bt.Table.Refs(bt.Table.TreeFor(cols[i]), bt.Preds)
		for _, ref := range refs[i] {
			rows[i] += ref.Count
		}
	}
	bi := 0
	if rows[1] < rows[0] {
		bi = 1
	}
	plan := exec.PlanHyper(refs[bi], cols[bi], refs[1-bi], cols[1-bi], 4)
	held := map[int]bool{}
	for _, g := range plan.Grouping {
		held[int(refs[bi][g[0]].Node)%nodes] = true
	}
	if len(held) >= nodes {
		t.Fatalf("the hyper-join's %d groups start on %d of %d nodes: every fragment holds one", len(plan.Grouping), len(held), nodes)
	}
	if used := s.Executor().Mem.Used(); used != 0 {
		t.Fatalf("%d bytes still charged to the memory budget", used)
	}
	if ents, err := os.ReadDir(s.Executor().SpillDir); err != nil || len(ents) != 0 {
		t.Fatalf("spill dir not empty after the query: %d entries (%v)", len(ents), err)
	}
	cl.Close()
}
