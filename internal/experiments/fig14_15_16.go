package experiments

import (
	"fmt"
	"math/rand"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tree"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
)

// Fig14 reproduces Figure 14: join lineitem ⋈ orders with no selection
// predicates under two-phase partitioning, sweeping the hyper-join
// memory buffer. The paper sweeps 64 MB–16 GB and finds performance
// flattens past 4 GB because the number of orders blocks read stops
// shrinking; we sweep the buffer in blocks and report both the time and
// the probe-block count.
func Fig14(cfg Config) (*Result, error) {
	model := cfg.model()
	store := dfs.NewStore(model.Nodes, 2, cfg.Seed)
	d := tpch.Generate(cfg.SF, cfg.Seed)
	tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
		RowsPerBlock: cfg.RowsPerBlock,
		JoinAttrs:    map[string]int{"lineitem": tpch.LOrderKey, "orders": tpch.OOrderKey},
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig14",
		Title:  "Effect of varying hyper-join memory buffer (lineitem ⋈ orders, no predicates)",
		Header: []string{"buffer(blocks)", "sim-seconds", "orders-blocks-read"},
		Notes:  "paper: time and blocks-read improve with buffer size, flattening once sharing saturates (≈4GB there)",
	}
	lRefs := tb.Lineitem.Refs(0, nil)
	sRefs := tb.Orders.Refs(0, nil)
	for _, budget := range []int{1, 2, 4, 8, 16, 32, 64} {
		meter := &cluster.Meter{}
		op := exec.New(store, meter).NewHyperJoinOp(exec.PlanHyper(lRefs, tpch.LOrderKey, sRefs, tpch.OOrderKey, budget), nil, nil, false)
		if _, err := exec.Count(op); err != nil {
			return nil, err
		}
		stats := op.Stats()
		secs := meter.Snapshot().SimSeconds(model)
		res.AddRow(fi(budget), f1(secs), fi(stats.ProbeBlocks))
		res.AddSeries("seconds", secs)
		res.AddSeries("blocks", float64(stats.ProbeBlocks))
	}
	return res, nil
}

// Fig15 reproduces Figure 15: the 70-query q14↔q19 shifting workload
// under window sizes 5 and 35. Both templates join lineitem with part,
// so no join-attribute change is involved; the experiment isolates how
// the window size paces Amoeba-style selection adaptation — small
// windows converge faster but spike harder.
func Fig15(cfg Config) (*Result, error) {
	model := cfg.model()
	d := tpch.Generate(cfg.SF, cfg.Seed)
	res := &Result{
		Name:   "fig15",
		Title:  "Execution time while varying query-window length (q14 ↔ q19)",
		Header: []string{"query", "window=5", "window=35"},
		Notes:  "paper: the small window converges first but is more volatile",
	}
	series := make(map[int][]float64)
	for _, winSize := range []int{5, 35} {
		store := dfs.NewStore(model.Nodes, 2, cfg.Seed)
		tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock,
			// Both templates drive lineitem to partkey; start converged on
			// the join attribute so only selection adaptation is at play,
			// matching the experiment's intent.
			JoinAttrs: map[string]int{"lineitem": tpch.LPartKey, "part": tpch.PPartKey},
			Seed:      cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		s := session.New(store, session.Config{
			Model: model,
			Optimizer: optimizer.Config{
				Mode: optimizer.ModeAdaptive, WindowSize: winSize,
				EnableAmoeba: true, Seed: cfg.Seed,
			},
			BudgetBlocks: cfg.Budget,
		})
		rng := rand.New(rand.NewSource(cfg.Seed + 23))
		for _, tpl := range fig15Schedule(rng) {
			secs, err := simSeconds(s, tpch.NewInstance(tpl, d, rng).Plan(tb))
			if err != nil {
				return nil, err
			}
			series[winSize] = append(series[winSize], secs)
		}
	}
	for i := range series[5] {
		res.AddRow(fi(i), f1(series[5][i]), f1(series[35][i]))
	}
	t5, p5 := Summarize(series[5])
	t35, p35 := Summarize(series[35])
	res.AddRow("TOTAL", f1(t5), f1(t35))
	res.AddRow("PEAK", f1(p5), f1(p35))
	res.Series = map[string][]float64{"w5": series[5], "w35": series[35]}
	return res, nil
}

// fig15Schedule builds the §7.4 workload: 10×q14, 20-query shift to
// q19, 10×q19, 20-query shift back, 10×q14 (70 queries).
func fig15Schedule(rng *rand.Rand) []tpch.Template {
	var out []tpch.Template
	add := func(tpl tpch.Template, n int) {
		for i := 0; i < n; i++ {
			out = append(out, tpl)
		}
	}
	shift := func(from, to tpch.Template) {
		for i := 0; i < 20; i++ {
			if rng.Float64() < float64(i+1)/20 {
				out = append(out, to)
			} else {
				out = append(out, from)
			}
		}
	}
	add(tpch.Q14, 10)
	shift(tpch.Q14, tpch.Q19)
	add(tpch.Q19, 10)
	shift(tpch.Q19, tpch.Q14)
	add(tpch.Q14, 10)
	return out
}

// Fig16 reproduces Figure 16: the number of orders blocks scanned while
// probing hyper-join hash tables, sweeping how many tree levels are
// reserved for the join attribute in each table. Variant (a) uses the
// paper's handcrafted q10 without customer (selective predicates on both
// tables); variant (b) drops all predicates. The paper's finding: with
// predicates the minimum sits near half the levels; without predicates,
// more join levels monotonically help.
func Fig16(cfg Config, withPredicates bool) (*Result, error) {
	model := cfg.model()
	d := tpch.Generate(cfg.SF, cfg.Seed)
	// Tree depths at this scale.
	lineDepth := depthFor(len(d.Lineitem), cfg.RowsPerBlock)
	ordDepth := depthFor(len(d.Orders), cfg.RowsPerBlock)

	variant := "a-q10-predicates"
	if !withPredicates {
		variant = "b-no-predicates"
	}
	res := &Result{
		Name:   "fig16" + variant[:1],
		Title:  fmt.Sprintf("Join-attribute levels sweep (%s)", variant),
		Header: []string{"line-levels\\ord-levels"},
		Notes:  "cells: orders blocks read during hyper-join probes (paper Fig. 16: minimum near half levels with predicates)",
	}
	for jo := 0; jo <= ordDepth; jo++ {
		res.Header = append(res.Header, fi(jo))
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	in := tpch.NewInstance(tpch.Q10, d, rng) // q10 minus customer below
	if !withPredicates {
		in.LinePreds, in.OrdPreds = nil, nil
	}

	grid := make([][]float64, 0, lineDepth+1)
	for jl := 0; jl <= lineDepth; jl++ {
		row := []string{fi(jl)}
		var gridRow []float64
		for jo := 0; jo <= ordDepth; jo++ {
			store := dfs.NewStore(model.Nodes, 2, cfg.Seed)
			tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
				RowsPerBlock: cfg.RowsPerBlock,
				JoinAttrs:    map[string]int{"lineitem": tpch.LOrderKey, "orders": tpch.OOrderKey},
				JoinLevels:   1, // overridden per table below
				Seed:         cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			// Rebuild the two trees with the exact level splits under test.
			if err := rebuildWithLevels(tb.Lineitem, tpch.LOrderKey, jl, lineDepth, cfg.Seed); err != nil {
				return nil, err
			}
			if err := rebuildWithLevels(tb.Orders, tpch.OOrderKey, jo, ordDepth, cfg.Seed); err != nil {
				return nil, err
			}
			meter := &cluster.Meter{}
			lRefs := tb.Lineitem.Refs(0, in.LinePreds)
			sRefs := tb.Orders.Refs(0, in.OrdPreds)
			op := exec.New(store, meter).NewHyperJoinOp(exec.PlanHyper(lRefs, tpch.LOrderKey, sRefs, tpch.OOrderKey, cfg.Budget), in.LinePreds, in.OrdPreds, false)
			if _, err := exec.Count(op); err != nil {
				return nil, err
			}
			stats := op.Stats()
			row = append(row, fi(stats.ProbeBlocks))
			gridRow = append(gridRow, float64(stats.ProbeBlocks))
		}
		res.Rows = append(res.Rows, row)
		grid = append(grid, gridRow)
		res.AddSeries(fmt.Sprintf("line%d", jl), gridRow...)
	}
	_ = grid
	return res, nil
}

func depthFor(rows, perBlock int) int {
	d := 0
	need := (rows + perBlock - 1) / perBlock
	for (1 << d) < need {
		d++
	}
	return d
}

// rebuildWithLevels replaces a table's tree with a fresh two-phase tree
// using exactly `join` of `total` levels on the join attribute (join=0
// builds a selection-only tree).
func rebuildWithLevels(tbl *core.Table, attr, join, total int, seed int64) error {
	var nt *tree.Tree
	if join <= 0 {
		var sel []int
		for i := 0; i < tbl.Schema.NumCols(); i++ {
			if i != attr {
				sel = append(sel, i)
			}
		}
		nt = upfront.Builder{Schema: tbl.Schema, Attrs: sel, Depth: total, Seed: seed}.Build(tbl.SampleRows)
	} else {
		nt = twophase.Builder{
			Schema: tbl.Schema, JoinAttr: attr, JoinLevels: join,
			TotalDepth: total, Seed: seed,
		}.Build(tbl.SampleRows)
	}
	return tbl.ReplaceTreeData(0, nt, nil)
}
