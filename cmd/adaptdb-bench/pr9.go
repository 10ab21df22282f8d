// The PR-9 acceptance benchmarks behind -pr9: (a) greedy zone-map
// join ordering vs the fixed declaration (left-deep) order on a
// grouped three-way TPC-H query whose selective edge sits last in
// declaration order, and (b) the RDF-style subject→object shifting
// workload replayed through adaptive vs static sessions. Both halves
// self-gate on result equality between the compared configurations.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/experiments"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/rdf"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/value"
)

type pr9GreedyReport struct {
	Query        string  `json:"query"`
	Rows         int     `json:"rows"`
	GreedySimS   float64 `json:"greedy_sim_s"`
	FixedSimS    float64 `json:"fixed_sim_s"`
	GreedyWallMs int64   `json:"greedy_wall_ms"`
	FixedWallMs  int64   `json:"fixed_wall_ms"`
	// SimSpeedup is fixed/greedy in simulated seconds (>1 = greedy wins).
	SimSpeedup float64 `json:"sim_speedup"`
}

type pr9RDFReport struct {
	Triples      int     `json:"triples"`
	Entities     int     `json:"entities"`
	Queries      int     `json:"queries"`
	AdaptiveSimS float64 `json:"adaptive_sim_s"`
	StaticSimS   float64 `json:"static_sim_s"`
	MovedRows    int     `json:"moved_rows"`
	// Speedup is static/adaptive in simulated seconds (>1 = the window wins).
	Speedup float64 `json:"speedup"`
}

type pr9Report struct {
	SF     float64         `json:"sf"`
	Nodes  int             `json:"nodes"`
	Seed   int64           `json:"seed"`
	Greedy pr9GreedyReport `json:"greedy_vs_fixed"`
	RDF    pr9RDFReport    `json:"rdf_shift"`
}

// runPR9 runs both acceptance benchmarks and writes the report.
func runPR9(cfg experiments.Config, jsonOut bool) error {
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 4
	}
	model := cfg.Model
	if model.Nodes == 0 {
		model = cluster.Default()
	}
	model.Nodes = nodes

	rep := pr9Report{SF: cfg.SF, Nodes: nodes, Seed: cfg.Seed}
	var err error
	if rep.Greedy, err = pr9GreedyVsFixed(cfg, model, nodes); err != nil {
		return err
	}
	if rep.RDF, err = pr9RDFShift(cfg, model, nodes); err != nil {
		return err
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("PR-9 acceptance benchmarks (SF=%.4g, %d nodes, seed %d)\n\n", cfg.SF, nodes, cfg.Seed)
	fmt.Printf("greedy vs fixed order on %s (%d result rows):\n", rep.Greedy.Query, rep.Greedy.Rows)
	fmt.Printf("  greedy %8.1f sim-s  %5d ms wall\n", rep.Greedy.GreedySimS, rep.Greedy.GreedyWallMs)
	fmt.Printf("  fixed  %8.1f sim-s  %5d ms wall\n", rep.Greedy.FixedSimS, rep.Greedy.FixedWallMs)
	fmt.Printf("  speedup (fixed/greedy, sim): %.2fx\n\n", rep.Greedy.SimSpeedup)
	fmt.Printf("rdf shift (%d triples / %d entities, %d queries):\n", rep.RDF.Triples, rep.RDF.Entities, rep.RDF.Queries)
	fmt.Printf("  adaptive %8.1f sim-s (%d rows migrated)\n", rep.RDF.AdaptiveSimS, rep.RDF.MovedRows)
	fmt.Printf("  static   %8.1f sim-s\n", rep.RDF.StaticSimS)
	fmt.Printf("  speedup (static/adaptive, sim): %.2fx\n", rep.RDF.Speedup)
	return nil
}

// pr9GreedyVsFixed runs one grouped three-way join — lineitem, orders,
// customer declared in that (worst) order with a selective customer
// predicate — once with greedy ordering and once pinned to the
// declaration order, over identically loaded stores. Greedy starts
// from the cheap orders⋈customer edge, so the expensive lineitem rows
// join a pre-filtered intermediate; fixed pays the full
// lineitem⋈orders build first.
func pr9GreedyVsFixed(cfg experiments.Config, model cluster.CostModel, nodes int) (pr9GreedyReport, error) {
	rep := pr9GreedyReport{Query: "q5-selective-customer-grouped"}
	data := tpch.Generate(cfg.SF, cfg.Seed)
	custCut := int64(len(data.Customer) / 8)
	if custCut < 1 {
		custCut = 1
	}
	spec := query.Spec{
		Label: rep.Query,
		Tables: []query.TableRef{
			{Name: "lineitem"},
			{Name: "orders"},
			{Name: "customer", Preds: []query.Pred{
				{Col: "c_custkey", Op: predicate.LT, Val: value.NewInt(custCut)},
			}},
		},
		Joins: []query.JoinEdge{
			query.On(query.C("lineitem", "l_orderkey"), query.C("orders", "o_orderkey")),
			query.On(query.C("orders", "o_custkey"), query.C("customer", "c_custkey")),
		},
		GroupBy: []query.Col{query.C("customer", "c_nationkey")},
		Aggs: []query.Agg{
			query.Count(),
			query.Sum(query.C("lineitem", "l_orderkey")),
			query.Max(query.C("lineitem", "l_partkey")),
		},
	}

	var rows [2]int
	for i, fixed := range []bool{false, true} {
		store := dfs.NewStore(nodes, 2, cfg.Seed)
		tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed,
		})
		if err != nil {
			return rep, err
		}
		meter := &cluster.Meter{}
		ex := exec.New(store, meter)
		ex.EnableNodes(1)
		runner := planner.NewRunner(ex, model)
		runner.FixedOrder = fixed
		if cfg.Budget > 0 {
			runner.BudgetBlocks = cfg.Budget
		}
		bound, err := spec.Bind(tables.Catalog())
		if err != nil {
			return rep, err
		}
		// Simulated cost is deterministic; wall time takes the best of
		// three runs to filter scheduler noise.
		var wall time.Duration
		var sim float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			comp, err := runner.CompileSpec(bound)
			if err != nil {
				return pr9GreedyReport{}, err
			}
			out, err := exec.Collect(comp.Root)
			if err != nil {
				return pr9GreedyReport{}, err
			}
			if w := time.Since(start); rep == 0 || w < wall {
				wall = w
			}
			rows[i] = len(out)
			// Per-node meter shards merge into the parent only on Flush.
			ex.Nodes().Flush()
			sim = meter.Reset().SimSeconds(model)
		}
		if fixed {
			rep.FixedSimS, rep.FixedWallMs = sim, wall.Milliseconds()
		} else {
			rep.GreedySimS, rep.GreedyWallMs = sim, wall.Milliseconds()
		}
	}
	if rows[0] != rows[1] {
		return rep, fmt.Errorf("greedy and fixed orders disagree: %d vs %d rows", rows[0], rows[1])
	}
	rep.Rows = rows[0]
	if rep.GreedySimS > 0 {
		rep.SimSpeedup = rep.FixedSimS / rep.GreedySimS
	}
	return rep, nil
}

// pr9RDFShift replays the subject→object shifting RDF workload through
// an adaptive and a static session over identically loaded stores and
// compares total simulated time. Per-query result counts must agree
// exactly between the modes.
func pr9RDFShift(cfg experiments.Config, model cluster.CostModel, nodes int) (pr9RDFReport, error) {
	nTriples := int(4_000_000 * cfg.SF) // scaled like the TPC-H micro tables
	if nTriples < 4000 {
		nTriples = 4000
	}
	// Entities at a third of the triples: the build side must be big
	// enough that its shuffle fan-out dominates the metered cost — the
	// component co-partitioning removes.
	nEntities := nTriples / 3
	rep := pr9RDFReport{Triples: nTriples, Entities: nEntities}
	d := rdf.Generate(nTriples, nEntities, cfg.Seed)

	const perPhase = 32
	rep.Queries = 2 * perPhase
	var counts [2][]int
	for i, mode := range []optimizer.Mode{optimizer.ModeAdaptive, optimizer.ModeStatic} {
		store := dfs.NewStore(nodes, 2, cfg.Seed)
		tb, err := d.Load(store, cfg.RowsPerBlock, cfg.Seed)
		if err != nil {
			return rep, err
		}
		s := session.New(store, session.Config{
			Model:       model,
			Optimizer:   optimizer.Config{Mode: mode, WindowSize: 5, Seed: cfg.Seed},
			Distributed: true,
		})
		cat := tb.Catalog()
		rng := rand.New(rand.NewSource(cfg.Seed))
		sim, moved := 0.0, 0
		for qi := 0; qi < 2*perPhase; qi++ {
			lo := rng.Int63n(int64(nEntities))
			hi := lo + int64(nEntities/8)
			spec := rdf.SubjectSpec(lo, hi)
			if qi >= perPhase {
				spec = rdf.ObjectSpec(lo, hi)
			}
			q, err := session.FromSpec(cat, spec)
			if err != nil {
				return rep, err
			}
			res, err := s.Execute(q)
			if err != nil {
				return rep, fmt.Errorf("rdf %s q%d: %w", spec.Label, qi, err)
			}
			sim += res.SimSeconds
			moved += res.Adapt.MovedRows
			counts[i] = append(counts[i], res.RowCount)
		}
		if mode == optimizer.ModeAdaptive {
			rep.AdaptiveSimS, rep.MovedRows = sim, moved
		} else {
			rep.StaticSimS = sim
		}
	}
	for qi := range counts[0] {
		if counts[0][qi] != counts[1][qi] {
			return rep, fmt.Errorf("rdf q%d: adaptive %d rows, static %d rows", qi, counts[0][qi], counts[1][qi])
		}
	}
	if rep.AdaptiveSimS > 0 {
		rep.Speedup = rep.StaticSimS / rep.AdaptiveSimS
	}
	return rep, nil
}
