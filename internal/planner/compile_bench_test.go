package planner_test

import (
	"math/rand"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/tpch"
	"adaptdb/internal/twophase"
)

// compileFixture is TPC-H in 256-row blocks on a 2-node simulated
// fabric — the layout of the benchmark's workloads — with q3 and q5
// specs bound against it.
type compileFixture struct {
	tables *tpch.Tables
	runner *planner.Runner
	specs  []*query.Bound
}

func newCompileFixture(tb testing.TB, sf float64) *compileFixture {
	return newCompileFixtureOn(tb, sf, 2)
}

// newCompileFixtureOn is newCompileFixture on an n-node store and
// fabric.
func newCompileFixtureOn(tb testing.TB, sf float64, n int) *compileFixture {
	tb.Helper()
	store := dfs.NewStore(n, 2, 42)
	data := tpch.Generate(sf, 42)
	tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: 256, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	ex := exec.New(store, &cluster.Meter{})
	ex.EnableNodes(0)
	model := cluster.Default()
	model.Nodes = n
	r := planner.NewRunner(ex, model)
	r.BudgetBlocks = 8
	f := &compileFixture{tables: tables, runner: r}
	rng := rand.New(rand.NewSource(7))
	for _, tpl := range []tpch.Template{tpch.Q3, tpch.Q5} {
		b, err := tpch.NewInstance(tpl, data, rng).Spec().Bind(tables.Catalog())
		if err != nil {
			tb.Fatal(err)
		}
		f.specs = append(f.specs, b)
	}
	return f
}

// midMigration gives lineitem and orders a second tree on the order
// key and moves every other bucket into it: the two-tree layout of a
// smooth repartitioning halfway through, where joins on the order key
// compile as combination joins.
func (f *compileFixture) midMigration(tb testing.TB) {
	tb.Helper()
	for _, side := range []struct {
		tbl  *core.Table
		attr int
	}{{f.tables.Lineitem, tpch.LOrderKey}, {f.tables.Orders, tpch.OOrderKey}} {
		tbl := side.tbl
		depth := tbl.Trees[0].Tree.Depth()
		idx := tbl.AddTree(twophase.Builder{Schema: tbl.Schema, JoinAttr: side.attr,
			JoinLevels: depth / 2, TotalDepth: depth, Seed: 3}.Build(tbl.SampleRows))
		var move []block.ID
		for i, b := range tbl.Trees[0].LiveBuckets() {
			if i%2 == 0 {
				move = append(move, b)
			}
		}
		if err := tbl.MoveBuckets(0, idx, move, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCompileSpec times one uncached compile of a q3 and a q5
// spec at SF 0.05 — pruning, ordering, strategy pricing and lowering,
// as a session compiles every query — on the static upfront layout and
// mid-migration with two trees. Reports µs per compile.
func BenchmarkCompileSpec(b *testing.B) {
	for _, layout := range []string{"static", "two-trees"} {
		b.Run(layout, func(b *testing.B) {
			f := newCompileFixture(b, 0.05)
			if layout == "two-trees" {
				f.midMigration(b)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, spec := range f.specs {
					if _, err := f.runner.CompileSpec(spec); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(f.specs)), "µs/compile")
		})
	}
}
