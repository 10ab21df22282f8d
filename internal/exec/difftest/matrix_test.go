package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// TestMain wires the worker re-exec path — a spawned worker process
// re-enters this test binary, registers the dataset, and never returns
// from MaybeWorker — and gives the package a private os.TempDir, the
// spill root every matrix cell checks.
func TestMain(m *testing.M) {
	RegisterDataset()
	generators["acceptance"] = func(int64, int) Workload { return acceptanceWorkload() }
	generators["narrow"] = func(_ int64, i int) Workload { return narrowWorkloads()[i] }
	adbnet.MaybeWorker()
	dir, err := os.MkdirTemp("", "difftest-")
	if err != nil {
		panic(err)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// row is one line of a band: a workload and the cells it runs in,
// under a subtest name ("" runs it in the band's own test).
type row struct {
	name  string
	w     Workload
	cells []Cell
}

// band is one test's share of the matrix: its rows, the join-filter
// word cap they run under (0 = production filters), and the coverage
// guard the summed stats of every cell (all) and of the TCP cells
// (tcp) must pass.
type band struct {
	long    bool
	wordCap int
	rows    func() []row
	guard   func(t *testing.T, all, tcp Stats)
}

func sessionAndServe(nodes int) []Cell { return []Cell{{Nodes: nodes}, {Serve: true, Nodes: nodes}} }

func tcp(nodes, workers int) Cell { return Cell{Nodes: nodes, Workers: workers} }

// specRows runs the generated spec workloads of seeds from..to.
func specRows(from, to int64, cells ...Cell) func() []row {
	return func() (rows []row) {
		for seed := from; seed <= to; seed++ {
			rows = append(rows, row{w: GenSpecCase(seed), cells: cells})
		}
		return rows
	}
}

// matrix is the differential matrix, one band per test.
var matrix = map[string]band{
	// A fixed band of generated spec workloads on one node; it must cover
	// every structural feature the generator can emit.
	"TestSpecQuick": {rows: specRows(1, 48, sessionAndServe(1)...), guard: func(t *testing.T, all, _ Stats) {
		for name, n := range map[string]int{
			"grouped": all.Grouped, "global": all.Global, "plain": all.Plain, "budgeted": all.Budgeted,
			"multi-attribute edge": all.MultiAttrEdges, "cyclic/extra edge": all.ExtraEdges,
		} {
			if n == 0 {
				t.Errorf("quick band never generated a %s query", name)
			}
		}
	}},
	// Exchanges, per-node budget shares and the greedy order lowered over
	// a 4-node store.
	"TestSpecQuickDistributed": {rows: specRows(300, 310, sessionAndServe(4)...)},
	// The pinned 3-table grouped aggregate at {unlimited, rows/8} budgets
	// × {1, 4} nodes; its reference must hold several groups.
	"TestSpecAcceptance": {rows: func() (rows []row) {
		base := acceptanceWorkload()
		for _, budget := range []int64{0, base.rowBytes() / 8} {
			for _, nodes := range []int{1, 4} {
				w := base
				w.Budget = budget
				rows = append(rows, row{fmt.Sprintf("budget=%d/nodes=%d", budget, nodes), w, sessionAndServe(nodes)})
			}
		}
		return rows
	}, guard: func(t *testing.T, all, _ Stats) {
		if all.RefRows < 2*all.Queries {
			t.Errorf("acceptance workload degenerated: %d reference groups over %d queries", all.RefRows, all.Queries)
		}
	}},
	// The grouped shapes whose scans keep the fewest columns, unbudgeted
	// and starved, on one node, 4 simulated nodes and 4 TCP fragments;
	// the references are pinned and a starved TCP run must spill.
	"TestSpecNarrowEdges": {rows: func() (rows []row) {
		for _, w := range narrowWorkloads() {
			for _, budget := range []int64{0, 4096} {
				w.Budget = budget
				name := fmt.Sprintf("%s/budget=%d", w.Stream[0].Label, budget)
				rows = append(rows, row{name + "/nodes=1", w, sessionAndServe(1)},
					row{name + "/nodes=4", w, sessionAndServe(4)}, row{name + "/tcp", w, []Cell{tcp(4, 4)}})
			}
		}
		return rows
	}, guard: func(t *testing.T, _, tcp Stats) {
		want := map[string][2]int64{"count-star": {1, 900}, "key-only-sides": {1, 3637}, "group-by-key": {53, 3637}}
		for _, w := range narrowWorkloads() {
			_, cat, err := w.Load(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Stream[0].Bind(cat)
			if err != nil {
				t.Fatal(err)
			}
			ref, count := RefSpec(w.Tables, b), int64(0)
			for _, r := range ref {
				count += r[len(b.GroupBy)].I
			}
			if got := [2]int64{int64(len(ref)), count}; got != want[b.Spec.Label] {
				t.Errorf("%s: reference has %d rows counting %d, want %v", b.Spec.Label, got[0], got[1], want[b.Spec.Label])
			}
		}
		if tcp.SpillRows == 0 {
			t.Error("no starved TCP run spilled a row")
		}
	}},
	// The CI subset of the TCP fabric: 1 and 4 fragments, each query also
	// run on its simulated twin.
	"TestSpecTCPQuick": {rows: specRows(1, 10, tcp(1, 1), tcp(4, 4))},
	// Every join filter capped at one word, so most rows that cannot
	// match still cross and the join must drop them, at 4 and 8
	// fragments, unbudgeted and starved. In-process workers share the cap.
	"TestSpecTCPFilterOneWord": {wordCap: 1, rows: func() (rows []row) {
		for seed := int64(1); seed <= 10; seed++ {
			for _, nodes := range []int{4, 8} {
				for _, budget := range []int64{0, 4096} {
					w := GenSpecCase(seed)
					w.Budget = budget
					rows = append(rows, row{w: w, cells: []Cell{tcp(nodes, nodes)}})
				}
			}
		}
		return rows
	}, guard: func(t *testing.T, _, tcp Stats) {
		if tcp.FilteredRows == 0 {
			t.Error("no probe row was filtered: the band ran no filtered shuffle")
		}
	}},
	// Fragment assignment off the fast path: more fragments than workers
	// and more workers than fragments.
	"TestSpecTCPAssignment": {rows: specRows(3, 3, tcp(8, 3), tcp(2, 5))},
	// The nightly TCP band: a wide seed band × {1, 4, 8} fragments.
	"TestSpecTCPFull": {long: true, rows: func() (rows []row) {
		for seed := int64(1); seed <= 40; seed++ {
			for _, nodes := range []int{1, 4, 8} {
				rows = append(rows, row{fmt.Sprintf("seed=%d/nodes=%d", seed, nodes), GenSpecCase(seed), []Cell{tcp(nodes, nodes)}})
			}
		}
		return rows
	}},
	// NULL-, NaN- and mixed-kind-bearing tables through scans, hyper-joins
	// and mid-stream migration on both fabrics at every budget tier
	// (unlimited, a fraction of the data, starved). The band must really
	// migrate (smooth moves, full rewrites and Amoeba swaps) and really
	// hyper-join, or it proves nothing about the block layer.
	"TestMixedBlocks": {rows: func() (rows []row) {
		for seed := int64(1); seed <= 6; seed++ {
			base := GenMixedCase(seed)
			for tier, budget := range []int64{0, base.rowBytes() / 6, 2048} {
				nodes := 1 + 3*int((seed+int64(tier))%2) // 1 or 4
				for _, c := range []Cell{{Nodes: nodes}, tcp(nodes, nodes)} {
					w := base
					w.Budget = budget
					rows = append(rows, row{fmt.Sprintf("seed=%d/budget=%d/tcp=%v/nodes=%d", seed, budget, c.Workers > 0, nodes), w, []Cell{c}})
				}
			}
		}
		return rows
	}, guard: func(t *testing.T, all, _ Stats) {
		t.Logf("band exercised %+v", all)
		if all.MovedRows == 0 || all.FullRepartitions == 0 || all.AmoebaTransforms == 0 || all.HyperJoins == 0 || all.RefRows == 0 {
			t.Fatalf("band is vacuous: %+v", all)
		}
	}},
}

// runBand runs the calling test's band of the matrix.
func runBand(t *testing.T) {
	b := matrix[t.Name()]
	if b.long && !*long {
		t.Skip("nightly band; run with -long")
	}
	defer exec.VerifyNoLeaks(t)
	defer exec.SetJoinFilterWordCap(exec.SetJoinFilterWordCap(b.wordCap))
	var all, tcp Stats
	for _, r := range b.rows() {
		run := func(t *testing.T) {
			for _, c := range r.cells {
				st, err := Run(r.w, c)
				if err != nil {
					t.Error(err)
					continue
				}
				all.add(st)
				if c.Workers > 0 {
					tcp.add(st)
				}
			}
		}
		if r.name == "" {
			run(t)
		} else {
			t.Run(r.name, run)
		}
	}
	if b.guard != nil {
		b.guard(t, all, tcp)
	}
}

func TestSpecQuick(t *testing.T)            { runBand(t) }
func TestSpecQuickDistributed(t *testing.T) { runBand(t) }
func TestSpecAcceptance(t *testing.T)       { runBand(t) }
func TestSpecNarrowEdges(t *testing.T)      { runBand(t) }
func TestSpecTCPQuick(t *testing.T)         { runBand(t) }
func TestSpecTCPFilterOneWord(t *testing.T) { runBand(t) }
func TestSpecTCPAssignment(t *testing.T)    { runBand(t) }
func TestSpecTCPFull(t *testing.T)          { runBand(t) }
func TestMixedBlocks(t *testing.T)          { runBand(t) }

// FuzzSpecDifferential lets go fuzz drive the spec workload seed space.
func FuzzSpecDifferential(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, c := range sessionAndServe(1) {
			if _, err := Run(GenSpecCase(seed), c); err != nil {
				t.Error(err)
			}
		}
	})
}

// intTable is an all-Int table of n rows over [0, keyRange), each cell
// NULL with probability 1/nullEvery.
func intTable(rng *rand.Rand, name string, ncols, n int, keyRange int64, nullEvery int) SpecTable {
	cols := make([]schema.Column, ncols)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("%s_c%d", name, i), Kind: value.Int}
	}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		r := make(tuple.Tuple, ncols)
		for c := range r {
			if rng.Intn(nullEvery) != 0 {
				r[c] = value.NewInt(rng.Int63n(keyRange))
			}
		}
		rows[i] = r
	}
	return SpecTable{Name: name, Sch: schema.MustNew(cols...), Rows: rows}
}

// staticWorkload is a pinned workload on randomly partitioned tables
// under a static layout.
func staticWorkload(gen string, seed int64, index int, tables []SpecTable, spec query.Spec) Workload {
	return Workload{
		Gen: gen, Seed: seed, Index: index, Tables: tables,
		LoadOpts:  core.LoadOptions{RowsPerBlock: 64, JoinAttr: -1},
		Optimizer: optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 4, Seed: seed},
		Stream:    []query.Spec{spec},
	}
}

// acceptanceWorkload is the pinned end-to-end grouped aggregate: three
// joined tables, a pushdown predicate, a group-by, and three
// aggregates.
func acceptanceWorkload() Workload {
	rng := rand.New(rand.NewSource(9))
	fact, dim1, dim2 := intTable(rng, "fact", 3, 150, 60, 16), intTable(rng, "dim1", 2, 50, 60, 16), intTable(rng, "dim2", 2, 10, 60, 16)
	// Small group domain so every budget/node combination sees several
	// multi-row groups.
	for i, r := range dim2.Rows {
		r[1] = value.NewInt(int64(i % 4))
	}
	return staticWorkload("acceptance", 9, 0, []SpecTable{fact, dim1, dim2}, query.Spec{
		Label: "acceptance",
		Tables: []query.TableRef{
			{Name: "fact"},
			{Name: "dim1", Preds: []query.Pred{query.Cmp("dim1_c1", predicate.LT, value.NewInt(40))}},
			{Name: "dim2"},
		},
		Joins: []query.JoinEdge{
			query.On(query.C("fact", "fact_c0"), query.C("dim1", "dim1_c0")),
			query.On(query.C("dim1", "dim1_c1"), query.C("dim2", "dim2_c0")),
		},
		GroupBy: []query.Col{query.C("dim2", "dim2_c1")},
		Aggs:    []query.Agg{query.Count(), query.Sum(query.C("fact", "fact_c1")), query.Min(query.C("fact", "fact_c2"))},
	})
}

// narrowWorkloads are the grouped shapes whose scans keep the fewest
// columns:
//   - a one-table COUNT(*), which reads no column (its scan keeps
//     column 0, so no stream is zero columns wide);
//   - a global aggregate over joins in which dim and dim2 contribute
//     only their join keys;
//   - a grouped join whose group-by column is also a join key.
//
// The joins' second is an intermediate against dim2, which has no tree
// on its key, so it shuffles and, under a starved budget, spills.
func narrowWorkloads() []Workload {
	const seed = 900
	rng := rand.New(rand.NewSource(seed))
	fact, dim, dim2 := intTable(rng, "fact", 4, 900, 60, 20), intTable(rng, "dim", 3, 120, 60, 20), intTable(rng, "dim2", 2, 150, 60, 20)
	joins := []query.JoinEdge{
		query.On(query.C("fact", "fact_c1"), query.C("dim", "dim_c0")),
		query.On(query.C("fact", "fact_c2"), query.C("dim2", "dim2_c0")),
	}
	joined := []query.TableRef{{Name: "fact"}, {Name: "dim"}, {Name: "dim2"}}
	sum := query.Sum(query.C("fact", "fact_c3"))
	specs := []query.Spec{
		{Label: "count-star", Tables: []query.TableRef{{Name: "fact"}}, Aggs: []query.Agg{query.Count()}},
		{Label: "key-only-sides", Tables: joined, Joins: joins, Aggs: []query.Agg{query.Count(), sum}},
		{Label: "group-by-key", Tables: joined, Joins: joins, GroupBy: []query.Col{query.C("dim", "dim_c0")},
			Aggs: []query.Agg{query.Count(), sum, query.Max(query.C("fact", "fact_c1"))}},
	}
	out := make([]Workload, len(specs))
	for i, s := range specs {
		tables := []SpecTable{fact}
		if len(s.Tables) > 1 {
			tables = append(tables, dim, dim2)
		}
		out[i] = staticWorkload("narrow", seed+int64(i), i, tables, s)
	}
	return out
}
