package planner

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/smooth"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
	"adaptdb/internal/workload"
)

// TestCentralChargeClasses: on a centralized runner every exchange is
// the one-node fabric's, which moves nothing and meters each row at its
// plan edge's eq. 1 class. Per join shape, ShuffleRows and
// IntermediateRows must equal exactly the rows each class carried, and
// no row may count as crossing a network.
func TestCentralChargeClasses(t *testing.T) {
	inner := func(f *fixture) Node { // co-partitioned: a hyper-join, no charges
		return &Join{Left: &Scan{Table: f.line}, Right: &Scan{Table: f.ord}, LCol: 0, RCol: 0}
	}
	lo := func(f *fixture) int { return len(oracleJoin(f.lrows, f.orows, 0, 0)) }
	custKey := lineSch.NumCols() + 1 // o_custkey in the inner join's row
	for _, tc := range []struct {
		name       string
		plan       func(t *testing.T, f *fixture) Node
		strategies []string
		// shuffle and inter are the rows eq. 1's CSJ factor and §4.3's
		// intermediate rate must have charged.
		shuffle, inter func(f *fixture) int
	}{
		{
			name: "table shuffle",
			plan: func(t *testing.T, f *fixture) Node {
				f.runner.ForceShuffle = true
				return inner(f)
			},
			strategies: []string{StratShuffle},
			shuffle:    func(f *fixture) int { return len(f.lrows) + len(f.orows) },
			inter:      func(*fixture) int { return 0 },
		},
		{
			// Residual lineitem rows (the partkey tree) re-join all of
			// orders: both sides of that part are base tables.
			name: "combination",
			plan: func(t *testing.T, f *fixture) Node {
				transition(t, f.line)
				return inner(f)
			},
			strategies: []string{StratCombination},
			shuffle: func(f *fixture) int {
				return f.line.RowsUnder(f.line.TreeFor(1)) + len(f.orows)
			},
			inter: func(*fixture) int { return 0 },
		},
		{
			// The intermediate (estimated 3000 rows) is no larger than
			// the 4000-row table: it is broadcast, the table read in place.
			name: "semi-shuffle",
			plan: func(t *testing.T, f *fixture) Node {
				return &Join{Left: inner(f), Right: &Scan{Table: loadKeyed(t, f, "part", 4000, 100)}, LCol: 1, RCol: 0}
			},
			strategies: []string{StratHyper, StratSemiShuffle},
			shuffle:    func(*fixture) int { return 0 },
			inter:      lo,
		},
		{
			// The 60-row table is the small side: it is broadcast at no
			// charge and the intermediate is dealt.
			name: "flipped semi-shuffle",
			plan: func(t *testing.T, f *fixture) Node {
				return &Join{Left: inner(f), Right: &Scan{Table: loadKeyed(t, f, "customer_co", 60, 60)}, LCol: custKey, RCol: 0}
			},
			strategies: []string{StratHyper, StratSemiShuffle},
			shuffle:    func(*fixture) int { return 0 },
			inter:      lo,
		},
		{
			// customer has no custkey tree: it repartitions too.
			name: "semi-shuffle without a tree",
			plan: func(t *testing.T, f *fixture) Node {
				return &Join{Left: inner(f), Right: &Scan{Table: f.cust}, LCol: custKey, RCol: 0}
			},
			strategies: []string{StratHyper, StratShuffle},
			shuffle:    func(f *fixture) int { return len(f.crows) },
			inter:      lo,
		},
		{
			name: "intermediates",
			plan: func(t *testing.T, f *fixture) Node {
				f.runner.ForceShuffle = true
				cc := &Join{Left: &Scan{Table: f.cust}, Right: &Scan{Table: f.cust}, LCol: 0, RCol: 0}
				return &Join{Left: inner(f), Right: cc, LCol: custKey, RCol: 0}
			},
			strategies: []string{StratShuffle, StratShuffle, StratShuffle},
			shuffle:    func(f *fixture) int { return len(f.lrows) + len(f.orows) + 2*len(f.crows) },
			inter: func(f *fixture) int {
				return lo(f) + len(oracleJoin(f.crows, f.crows, 0, 0))
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := setup(t, true)
			plan := tc.plan(t, f)
			f.meter.Reset()
			_, rep, err := collect(f.runner, plan)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, j := range rep.Joins {
				got = append(got, j.Strategy)
			}
			if !reflect.DeepEqual(got, tc.strategies) {
				t.Fatalf("strategies %v, want %v", got, tc.strategies)
			}
			c := f.meter.Snapshot()
			if want := float64(tc.shuffle(f)); c.ShuffleRows != want {
				t.Errorf("ShuffleRows = %v, want %v", c.ShuffleRows, want)
			}
			if want := float64(tc.inter(f)); c.IntermediateRows != want {
				t.Errorf("IntermediateRows = %v, want %v", c.IntermediateRows, want)
			}
			if c.ExchRows() != 0 {
				t.Errorf("the one-node fabric exchanged %v rows across nodes, want 0", c.ExchRows())
			}
		})
	}
}

// transition pushes a table mid-way into a partkey (column 1) tree, so
// it has two live trees.
func transition(t *testing.T, tbl *core.Table) {
	t.Helper()
	w := workload.NewWindow(10)
	m := smooth.New(w, 5)
	for i := 0; i < 3; i++ {
		q := workload.Query{JoinAttr: 1}
		w.Add(q)
		if _, err := m.Step(tbl, q, &cluster.Meter{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.LiveTrees()) < 2 {
		t.Fatalf("%s should be mid-transition; trees=%v", tbl.Name, tbl.LiveTrees())
	}
}

// loadKeyed loads an n-row custSch-shaped table whose key column
// cycles through keys values, partitioned on that key.
func loadKeyed(t *testing.T, f *fixture, name string, n, keys int) *core.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(int64(i % keys)), value.NewInt(rng.Int63n(5))}
	}
	tbl, err := core.Load(f.store, name, custSch, rows, core.LoadOptions{RowsPerBlock: 64, Seed: 9, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
