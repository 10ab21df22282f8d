package planner

import (
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/predicate"
	"adaptdb/internal/value"
)

// distSetup builds the shared fixture with the node fabric enabled, so
// Compile takes the distributed path.
func distSetup(t *testing.T, coPart bool) *fixture {
	f := setup(t, coPart)
	f.runner.Ex.EnableNodes(1)
	return f
}

// TestDistributedShuffleJoinOracle: a randomly partitioned two-table
// join compiles to per-node scans + hash exchanges + node-local joins
// and still produces exactly the oracle rows; the exchange meters the
// movement.
func TestDistributedShuffleJoinOracle(t *testing.T) {
	f := distSetup(t, false)
	// Random layouts can still win an opportunistic hyper-join off tight
	// zone maps; pin the strategy so the exchange path is what runs.
	f.runner.ForceShuffle = true
	plan := &Join{
		Left:  &Scan{Table: f.line},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	f.runner.Ex.Nodes().Flush()
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "distributed shuffle")
	if len(rep.Joins) != 1 || rep.Joins[0].Strategy != StratShuffle {
		t.Fatalf("unexpected report: %+v", rep.Joins)
	}
	if rep.Joins[0].OutputRows != len(rows) {
		t.Fatalf("report output rows %d, want %d", rep.Joins[0].OutputRows, len(rows))
	}
	c := f.meter.Snapshot()
	if c.ExchLocalRows+c.ExchRemoteRows != float64(len(f.lrows)+len(f.orows)) {
		t.Fatalf("shuffle exchanged %v rows, want both sides = %d", c.ExchLocalRows+c.ExchRemoteRows, len(f.lrows)+len(f.orows))
	}
	if c.ShuffleRows != 0 {
		t.Fatalf("the simulated fabric must meter crossings, not charge classes; got %v shuffle rows", c.ShuffleRows)
	}
}

// TestDistributedHyperJoinZeroExchange: co-partitioned tables take the
// co-located hyper-join — identical rows, and NOT ONE row crosses an
// exchange (the acceptance criterion for locality-aware execution).
func TestDistributedHyperJoinZeroExchange(t *testing.T) {
	f := distSetup(t, true)
	plan := &Join{
		Left:  &Scan{Table: f.line},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	f.runner.Ex.Nodes().Flush()
	sameRows(t, rows, oracleJoin(f.lrows, f.orows, 0, 0), "distributed hyper")
	if len(rep.Joins) != 1 || rep.Joins[0].Strategy != StratHyper {
		t.Fatalf("expected hyper join on co-partitioned tables, got %+v", rep.Joins)
	}
	c := f.meter.Snapshot()
	if got := c.ExchLocalRows + c.ExchRemoteRows; got != 0 {
		t.Fatalf("co-located hyper-join moved %v rows through exchanges, want 0", got)
	}
}

// TestDistributedSemiShuffleBroadcast: an intermediate ⋈ base-table
// join against a co-partitioned base table exchanges only one side.
func TestDistributedSemiShuffleBroadcast(t *testing.T) {
	f := distSetup(t, true)
	// The semi-shuffle needs a tree on the join attribute; the shared
	// fixture's customer is randomly partitioned, so load a
	// co-partitioned copy.
	cust, err := core.Load(f.store, "customer_co", custSch, f.crows,
		core.LoadOptions{RowsPerBlock: 16, Seed: 3, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1200))}
	inner := &Join{
		Left:  &Scan{Table: f.line, Preds: preds},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	plan := &Join{
		Left:  inner,
		Right: &Scan{Table: cust},
		LCol:  lineSch.NumCols() + 1, RCol: 0,
	}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	f.runner.Ex.Nodes().Flush()
	lo := oracleJoin(filter(f.lrows, preds), f.orows, 0, 0)
	want := oracleJoin(lo, f.crows, lineSch.NumCols()+1, 0)
	sameRows(t, rows, want, "distributed semi-shuffle")
	if len(rep.Joins) != 2 || rep.Joins[1].Strategy != StratSemiShuffle {
		t.Fatalf("unexpected report: %+v", rep.Joins)
	}
	c := f.meter.Snapshot()
	n := float64(f.runner.Ex.Nodes().N())
	// The intermediate is the big side here, so the compiler broadcasts
	// the small customer table (N copies) and deals the intermediate
	// across the nodes (each row crosses once); the inner hyper-join is
	// co-located and moves nothing.
	wantExch := n*float64(len(f.crows)) + float64(len(lo))
	if c.ExchLocalRows+c.ExchRemoteRows != wantExch {
		t.Fatalf("semi-shuffle exchanged %v rows, want %v (%v×%d cust + %d dealt)",
			c.ExchLocalRows+c.ExchRemoteRows, wantExch, n, len(f.crows), len(lo))
	}
	if naive := float64(len(lo)) * n; wantExch >= naive {
		t.Fatalf("broadcast-small/deal-big (%v rows) should beat naive broadcast (%v)", wantExch, naive)
	}
}

// TestDistributedSemiShuffleFallsBackToShuffle: when the base table has
// no tree on the join attribute, the intermediate ⋈ table join
// hash-exchanges BOTH sides and reports shuffle.
func TestDistributedSemiShuffleFallsBackToShuffle(t *testing.T) {
	f := distSetup(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(1200))}
	inner := &Join{
		Left:  &Scan{Table: f.line, Preds: preds},
		Right: &Scan{Table: f.ord},
		LCol:  0, RCol: 0,
	}
	plan := &Join{
		Left:  inner,
		Right: &Scan{Table: f.cust}, // randomly partitioned: no tree on custkey
		LCol:  lineSch.NumCols() + 1, RCol: 0,
	}
	rows, rep, err := collect(f.runner, plan)
	if err != nil {
		t.Fatal(err)
	}
	f.runner.Ex.Nodes().Flush()
	lo := oracleJoin(filter(f.lrows, preds), f.orows, 0, 0)
	want := oracleJoin(lo, f.crows, lineSch.NumCols()+1, 0)
	sameRows(t, rows, want, "semi-shuffle fallback")
	if len(rep.Joins) != 2 || rep.Joins[1].Strategy != StratShuffle {
		t.Fatalf("no tree on the join attribute should report shuffle, got %+v", rep.Joins)
	}
	// Both sides crossed the exchanges: every intermediate row plus
	// every customer row, exactly once each.
	c := f.meter.Snapshot()
	if got, want := c.ExchLocalRows+c.ExchRemoteRows, float64(len(lo)+len(f.crows)); got != want {
		t.Fatalf("fallback shuffle exchanged %v rows, want %v", got, want)
	}
}

// TestDistributedMatchesCentralized: the same plans on the same data
// produce identical result multisets with and without the node fabric,
// across co-partitioned and random layouts.
func TestDistributedMatchesCentralized(t *testing.T) {
	for _, coPart := range []bool{true, false} {
		cen := setup(t, coPart)
		dist := distSetup(t, coPart)
		preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(2000))}
		for name, plan := range map[string]func(f *fixture) Node{
			"two-table": func(f *fixture) Node {
				return &Join{Left: &Scan{Table: f.line, Preds: preds}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
			},
			"three-table": func(f *fixture) Node {
				return &Join{
					Left:  &Join{Left: &Scan{Table: f.line, Preds: preds}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0},
					Right: &Scan{Table: f.cust},
					LCol:  lineSch.NumCols() + 1, RCol: 0,
				}
			},
		} {
			cRows, _, err := collect(cen.runner, plan(cen))
			if err != nil {
				t.Fatalf("%s centralized: %v", name, err)
			}
			dRows, _, err := collect(dist.runner, plan(dist))
			if err != nil {
				t.Fatalf("%s distributed: %v", name, err)
			}
			sameRows(t, dRows, cRows, name)
		}
	}
}
