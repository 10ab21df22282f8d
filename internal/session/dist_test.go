package session

import (
	"math/rand"
	"testing"

	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

// replayTPCH runs the join-attribute-shifting TPC-H stream through a
// distributed session over `nodes` nodes and returns each query's
// materialized rows (plus the session for counter inspection).
func replayTPCH(t *testing.T, data *tpch.Dataset, nodes int) ([][]tuple.Tuple, []*Result) {
	t.Helper()
	store := dfs.NewStore(nodes, 2, 7)
	tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: 96, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: 7},
		Distributed: true,
	})
	// Same rng seed for every node count: identical query parameters.
	rng := rand.New(rand.NewSource(7))
	schedule := []tpch.Template{
		tpch.Q5, tpch.Q3, tpch.Q5, tpch.Q3, tpch.Q5, tpch.Q3,
		tpch.Q8, tpch.Q14, tpch.Q8, tpch.Q14, tpch.Q8, tpch.Q14,
	}
	var rows [][]tuple.Tuple
	var results []*Result
	for qi, tpl := range schedule {
		in := tpch.NewInstance(tpl, data, rng)
		res, err := s.Execute(Query{Label: string(tpl), Plan: in.Plan(tables)})
		if err != nil {
			t.Fatalf("nodes=%d q%d (%s): %v", nodes, qi, tpl, err)
		}
		rows = append(rows, res.Rows)
		results = append(results, res)
	}
	return rows, results
}

// TestDistributedSessionOracle4v1: the PR-3 adaptive TPC-H stream
// produces identical sorted results on a 4-node fabric and a 1-node
// fabric, query by query — partitioning the execution across nodes
// must never change an answer.
func TestDistributedSessionOracle4v1(t *testing.T) {
	data := tpch.Generate(0.001, 7)
	one, _ := replayTPCH(t, data, 1)
	four, res4 := replayTPCH(t, data, 4)
	if len(one) != len(four) {
		t.Fatalf("query counts differ: %d vs %d", len(one), len(four))
	}
	for qi := range one {
		sameRows(t, four[qi], one[qi], res4[qi].Label)
	}
	// The 4-node run must actually have spread work: some query's
	// per-node stats should show more than one node touching rows.
	spread := false
	for _, r := range res4 {
		active := 0
		for _, nl := range r.PerNode() {
			if nl.Node >= 0 && nl.Rows > 0 {
				active++
			}
		}
		if active > 1 {
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("4-node session never ran operators on more than one node")
	}
}

// TestDistributedHyperJoinSessionZeroExchange: once the stream
// converges onto co-partitioned layouts, a hyper-join query moves zero
// rows through exchanges while a broadcast (semi-shuffle) join moves
// only its intermediate.
func TestDistributedHyperJoinSessionZeroExchange(t *testing.T) {
	f := setup(t)
	s := New(f.store, Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 3, Seed: 9},
		Distributed: true,
	})
	// Drive the fact table onto attribute 0 until the layout converges.
	var last *Result
	for i := 0; i < 8; i++ {
		res, err := s.Execute(f.query(0, 1000))
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if got := len(last.Report.Joins); got != 1 {
		t.Fatalf("expected one join, got %d", got)
	}
	if last.Report.Joins[0].Strategy != "hyper" {
		t.Fatalf("converged stream should hyper-join, got %q", last.Report.Joins[0].Strategy)
	}
	if got := last.Counters.ExchRows(); got != 0 {
		t.Fatalf("co-partitioned hyper-join exchanged %v rows, want 0", got)
	}
	// Sanity: the answer still matches the oracle.
	preds := f.query(0, 1000).Plan.(*planner.Join).Left.(*planner.Scan).Preds
	want := exec.NestedLoopJoin(filterRows(f.frows, preds), f.darows, 0, 0)
	sameRows(t, last.Rows, want, "converged hyper")
}
