package experiments

import (
	"fmt"
	"math/rand"

	"adaptdb/internal/baselines"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
)

// Fig12 reproduces Figure 12: per-template execution time on TPC-H for
// four systems — AdaptDB with hyper-join, AdaptDB with shuffle join,
// Amoeba (selection-only partitioning + shuffle joins), and PREF
// (reference partitioning with replication). As in the paper, each
// template runs against a layout already converged for it ("we ran the
// smooth partitioning algorithm for several iterations until just one
// tree with the join attribute existed"), and the reported number is
// the average of several parameterized instances.
func Fig12(cfg Config) (*Result, error) {
	model := cfg.model()
	d := tpch.Generate(cfg.SF, cfg.Seed)
	const runsPerTemplate = 3
	// Deeper trees than the adaptive-workload experiments: the paper's
	// SF-1000 trees have ~14 levels, leaving room for both join and
	// selection levels; quarter-size blocks approximate that here. The
	// same memory budget therefore holds 4x as many blocks.
	cfg.RowsPerBlock = maxInt(cfg.RowsPerBlock/4, 32)
	cfg.Budget *= 4

	res := &Result{
		Name:   "fig12",
		Title:  "Execution time for queries on TPC-H (sim-seconds)",
		Header: []string{"query", "AdaptDB/Hyper", "AdaptDB/Shuffle", "Amoeba", "PREF", "hyper-vs-shuffle"},
		Notes:  "paper: hyper-join 1.60x faster than shuffle on average (max 2.16x), always beats PREF",
	}

	pref := baselines.BuildPREF(d, prefPartitions(cfg))

	for _, tpl := range tpch.JoinTemplates {
		joinAttr := tpch.LineitemJoinAttrFor(tpl)
		// Layouts converged for this template: the paper runs the adaptive
		// partitioner "for several iterations until just one tree with the
		// join attribute existed", which also settles the selection levels
		// on the template's predicate columns.
		selAttrs := templatePredColumns(tpl, d)
		adaptStore := dfs.NewStore(model.Nodes, 2, cfg.Seed)
		adaptTables, err := tpch.LoadAll(adaptStore, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock,
			JoinAttrs: map[string]int{
				"lineitem": joinAttr,
				"orders":   ordersAttrFor(tpl),
				"customer": tpch.CCustKey,
				"part":     tpch.PPartKey,
			},
			Attrs: selAttrs,
			Seed:  cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Amoeba layout: selection-only trees (no join attribute), equally
		// converged on the template's predicate columns.
		amoebaStore := dfs.NewStore(model.Nodes, 2, cfg.Seed+1)
		amoebaTables, err := tpch.LoadAll(amoebaStore, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock,
			Attrs:        selAttrs,
			Seed:         cfg.Seed + 1,
		})
		if err != nil {
			return nil, err
		}

		hyper := staticSession(adaptStore, model, cfg.Budget, false)
		shuffle := staticSession(adaptStore, model, cfg.Budget, true)
		amoeba := staticSession(amoebaStore, model, 0, true)
		var hyperS, shuffleS, amoebaS, prefS float64
		rng := rand.New(rand.NewSource(cfg.Seed + 100))
		for run := 0; run < runsPerTemplate; run++ {
			in := tpch.NewInstance(tpl, d, rng)
			for _, sys := range []struct {
				s   *session.Session
				tb  *tpch.Tables
				sum *float64
			}{{hyper, adaptTables, &hyperS}, {shuffle, adaptTables, &shuffleS}, {amoeba, amoebaTables, &amoebaS}} {
				secs, err := simSeconds(sys.s, in.Plan(sys.tb))
				if err != nil {
					return nil, err
				}
				*sys.sum += secs
			}

			pMeter := &cluster.Meter{}
			if _, err := pref.Run(in, pMeter); err != nil {
				return nil, err
			}
			prefS += pMeter.Snapshot().SimSeconds(model)
		}
		hyperS /= runsPerTemplate
		shuffleS /= runsPerTemplate
		amoebaS /= runsPerTemplate
		prefS /= runsPerTemplate

		res.AddRow(string(tpl), f1(hyperS), f1(shuffleS), f1(amoebaS), f1(prefS),
			fmt.Sprintf("%.2fx", shuffleS/hyperS))
		res.AddSeries("hyper", hyperS)
		res.AddSeries("shuffle", shuffleS)
		res.AddSeries("amoeba", amoebaS)
		res.AddSeries("pref", prefS)
		res.AddSeries("speedup", shuffleS/hyperS)
	}
	return res, nil
}

// templatePredColumns extracts, per table, the columns a template's
// predicates touch — the selection attributes a converged layout would
// carry.
func templatePredColumns(tpl tpch.Template, d *tpch.Dataset) map[string][]int {
	rng := rand.New(rand.NewSource(1))
	in := tpch.NewInstance(tpl, d, rng)
	cols := func(preds []predicate.Predicate) []int {
		seen := map[int]bool{}
		var out []int
		for _, p := range preds {
			if !seen[p.Col] {
				seen[p.Col] = true
				out = append(out, p.Col)
			}
		}
		return out
	}
	out := make(map[string][]int)
	if c := cols(in.LinePreds); len(c) > 0 {
		out["lineitem"] = c
	}
	if c := cols(in.OrdPreds); len(c) > 0 {
		out["orders"] = c
	}
	if c := cols(in.CustPreds); len(c) > 0 {
		out["customer"] = c
	}
	if c := cols(in.PartPreds); len(c) > 0 {
		out["part"] = c
	}
	return out
}

// ordersAttrFor picks the converged orders-tree attribute per template:
// orderkey when orders joins lineitem, custkey for q8's (orders ⋈
// customer) pairing.
func ordersAttrFor(tpl tpch.Template) int {
	if tpl == tpch.Q8 {
		return tpch.OCustKey
	}
	return tpch.OOrderKey
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// prefPartitions scales the paper's 200-partition PREF setting to the
// experiment's data size: roughly one partition per four blocks of
// lineitem, at least 8.
func prefPartitions(cfg Config) int {
	_, orders, _, _, _ := tpch.Counts(cfg.SF)
	k := orders * 4 / (cfg.RowsPerBlock * 4)
	if k < 8 {
		k = 8
	}
	if k > 200 {
		k = 200
	}
	return k
}
