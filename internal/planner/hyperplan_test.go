package planner_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/tpch"
)

// shiftSpecs is the benchmark's join-attribute shift, 2:1 heavy:light:
// q5,q5,q3 on the order key, then q8,q8,q14 on the part key.
func shiftSpecs(t testing.TB, f *compileFixture, data *tpch.Dataset, cycles, perPhase int) []*query.Bound {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var out []*query.Bound
	for phase := 0; phase < 2*cycles; phase++ {
		tpls := []tpch.Template{tpch.Q5, tpch.Q5, tpch.Q3}
		if phase%2 == 1 {
			tpls = []tpch.Template{tpch.Q8, tpch.Q8, tpch.Q14}
		}
		for i := 0; i < perPhase; i++ {
			b, err := tpch.NewInstance(tpls[i%len(tpls)], data, rng).Spec().Bind(f.tables.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestHyperJoinRunsPricedSchedule replays an adaptive shift schedule and
// checks, for every hyper and combination join, that the operator runs
// the grouping the planner priced — the schedule PlanHyper gives for
// the operator's own refs, which is what the operator used to recompute
// at Open — and that the Report's ProbeBlocks and CHyJ are the ones
// that schedule implies.
func TestHyperJoinRunsPricedSchedule(t *testing.T) {
	f := newCompileFixture(t, 0.01)
	data := tpch.Generate(0.01, 42)
	opt := optimizer.New(optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: 42})
	seen := map[string]int{}
	for qi, b := range shiftSpecs(t, f, data, 2, 6) {
		if _, err := opt.OnQuery(b.Uses(), &cluster.Meter{}); err != nil {
			t.Fatal(err)
		}
		c, err := f.runner.CompileSpec(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Drain(nil, c.Root, nil); err != nil {
			t.Fatal(err)
		}
		ops := c.HyperOps()
		k := 0
		for _, jr := range c.Report.Joins {
			if jr.Strategy != planner.StratHyper && jr.Strategy != planner.StratCombination {
				continue
			}
			seen[jr.Strategy]++
			if k >= len(ops) {
				t.Fatalf("query %d: %d hyper-joins for more hyper and combination joins", qi, len(ops))
			}
			p := ops[k].Plan()
			k++
			fresh := exec.PlanHyper(p.R, p.RCol, p.S, p.SCol, f.runner.BudgetBlocks)
			if !reflect.DeepEqual(p.Grouping, fresh.Grouping) || !reflect.DeepEqual(p.V, fresh.V) {
				t.Fatalf("query %d %s: operator runs grouping %v, its refs plan to %v", qi, jr.Strategy, p.Grouping, fresh.Grouping)
			}
			if len(p.R) == 0 || len(p.S) == 0 {
				continue
			}
			if jr.ProbeBlocks != len(p.ProbeIdx) || jr.CHyJ != float64(len(p.ProbeIdx))/float64(len(p.S)) {
				t.Fatalf("query %d %s: report ProbeBlocks %d CHyJ %v, schedule %d/%d",
					qi, jr.Strategy, jr.ProbeBlocks, jr.CHyJ, len(p.ProbeIdx), len(p.S))
			}
		}
		if k != len(ops) {
			t.Fatalf("query %d: %d hyper-joins compiled, %d reported", qi, len(ops), k)
		}
	}
	if seen[planner.StratHyper] == 0 || seen[planner.StratCombination] == 0 {
		t.Fatalf("schedule never hyper- and combination-joined: %v", seen)
	}
}

// TestHyperFragmentsSumToOneOperator replays the adaptive shift on a 2-
// and a 4-node store and runs every query twice: on the node fabric,
// where a hyper or combination join runs one hyper-join fragment per
// node, and on the one-node fabric over the same store, where one
// operator runs the whole schedule. The fragments partition its groups:
// their HyperStats sum to the one operator's, the Report's ProbeBlocks,
// CHyJ and output rows equal the one-node fabric's, and every block
// read is metered local or remote exactly as the one operator meters
// it.
func TestHyperFragmentsSumToOneOperator(t *testing.T) {
	data := tpch.Generate(0.01, 42)
	for _, nodes := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			f := newCompileFixtureOn(t, 0.01, nodes)
			cm := &cluster.Meter{}
			central := planner.NewRunner(exec.New(f.runner.Ex.Store, cm), f.runner.Model)
			central.BudgetBlocks = f.runner.BudgetBlocks
			opt := optimizer.New(optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: 42})
			run := func(r *planner.Runner, b *query.Bound) (*planner.Compiled, cluster.Counters) {
				c, err := r.CompileSpec(b)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec.Drain(nil, c.Root, nil); err != nil {
					t.Fatal(err)
				}
				if ns := r.Ex.Nodes(); ns != nil {
					ns.Flush()
				}
				return c, r.Ex.Meter.Reset()
			}
			seen := map[string]int{}
			for qi, b := range shiftSpecs(t, f, data, 2, 6) {
				if _, err := opt.OnQuery(b.Uses(), &cluster.Meter{}); err != nil {
					t.Fatal(err)
				}
				dc, dm := run(f.runner, b)
				oc, om := run(central, b)
				reads := func(c cluster.Counters) [8]float64 {
					return [8]float64{c.ScanLocal, c.ScanRemote, c.BuildLocal, c.BuildRemote,
						c.ProbeLocal, c.ProbeRemote, float64(c.BlocksScanned), float64(c.ProbeBlocks)}
				}
				if reads(dm) != reads(om) {
					t.Fatalf("query %d: node fabric metered block reads %v, one-node fabric %v", qi, reads(dm), reads(om))
				}
				if len(dc.Report.Joins) != len(oc.Report.Joins) {
					t.Fatalf("query %d: %d joins on the node fabric, %d on one node", qi, len(dc.Report.Joins), len(oc.Report.Joins))
				}
				for k, jr := range dc.Report.Joins {
					if want := oc.Report.Joins[k]; jr != want {
						t.Fatalf("query %d join %d: node fabric reports %+v, one-node fabric %+v", qi, k, jr, want)
					}
				}
				frags, ones := dc.HyperFragments(), oc.HyperFragments()
				if len(frags) != len(ones) {
					t.Fatalf("query %d: %d hyper-joins on the node fabric, %d on one node", qi, len(frags), len(ones))
				}
				for k, fs := range frags {
					if len(fs) != nodes || len(ones[k]) != 1 {
						t.Fatalf("query %d hyper-join %d: %d fragments on %d nodes, %d on one", qi, k, len(fs), nodes, len(ones[k]))
					}
					var sum exec.HyperStats
					for _, h := range fs {
						st := h.Stats()
						sum.Groups += st.Groups
						sum.BuildBlocks += st.BuildBlocks
						sum.ProbeBlocks += st.ProbeBlocks
						sum.SBlocks = max(sum.SBlocks, st.SBlocks)
						sum.CHyJ += st.CHyJ
						sum.GroupingCost += st.GroupingCost
					}
					want := ones[k][0].Stats()
					if math.Abs(sum.CHyJ-want.CHyJ) > 1e-9 {
						t.Fatalf("query %d hyper-join %d: fragments' CHyJ sums to %v, one operator %v", qi, k, sum.CHyJ, want.CHyJ)
					}
					sum.CHyJ = want.CHyJ
					if sum != want {
						t.Fatalf("query %d hyper-join %d: fragments sum to %+v, one operator %+v", qi, k, sum, want)
					}
				}
				for _, jr := range dc.Report.Joins {
					seen[jr.Strategy]++
				}
			}
			if seen[planner.StratHyper] == 0 || seen[planner.StratCombination] == 0 {
				t.Fatalf("schedule never hyper- and combination-joined: %v", seen)
			}
		})
	}
}

// TestConcurrentCompiles compiles the shift schedule's specs from two
// goroutines at once against one table set mid-migration — the serving
// layer's two tenants under the layout read lock — each through its own
// runner and executor, one with a shared plan cache. Every compile must
// report the strategies a lone compile reports; run it under -race.
func TestConcurrentCompiles(t *testing.T) {
	f := newCompileFixture(t, 0.01)
	f.midMigration(t)
	specs := shiftSpecs(t, f, tpch.Generate(0.01, 42), 1, 6)
	strategies := func(r *planner.Runner, b *query.Bound) []string {
		c, err := r.CompileSpec(b)
		if err != nil {
			t.Error(err)
			return nil
		}
		var out []string
		for _, j := range c.Report.Joins {
			out = append(out, j.Strategy)
		}
		return out
	}
	want := make([][]string, len(specs))
	for i, b := range specs {
		want[i] = strategies(f.runner, b)
	}
	cache := planner.NewPlanCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		ex := exec.New(f.runner.Ex.Store, &cluster.Meter{})
		ex.EnableNodes(0)
		r := planner.NewRunner(ex, f.runner.Model)
		r.BudgetBlocks = f.runner.BudgetBlocks
		if g == 0 {
			r.Cache = cache
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, b := range specs {
					if got := strategies(r, b); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("spec %d: concurrent compile chose %v, alone %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
