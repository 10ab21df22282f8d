package experiments

import (
	"fmt"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/planner"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
)

// Fig01 reproduces Figure 1: a shuffle join versus a co-partitioned join
// of lineitem ⋈ orders with no predicates. The paper measures the
// co-partitioned join at almost 2× faster; here the co-partitioned case
// runs as a hyper-join with CHyJ ≈ 1.
func Fig01(cfg Config) (*Result, error) {
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
	plan := &planner.Join{
		Left:  &planner.Scan{Table: tb.Lineitem},
		Right: &planner.Scan{Table: tb.Orders},
		LCol:  tpch.LOrderKey, RCol: tpch.OOrderKey,
	}
	shuffle, err := staticSession(store, model, cfg.Budget, true).Execute(session.Query{Plan: plan})
	if err != nil {
		return nil, err
	}
	coPart, err := staticSession(store, model, cfg.Budget, false).Execute(session.Query{Plan: plan})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:   "fig01",
		Title:  "Shuffle vs co-partitioned joins (lineitem ⋈ orders)",
		Header: []string{"join", "sim-seconds"},
		Notes:  fmt.Sprintf("co-partitioned runs as hyper-join, CHyJ=%.2f; paper: co-partitioned ≈2x faster", coPart.Report.Joins[0].CHyJ),
	}
	res.AddRow("Shuffle Join", f1(shuffle.SimSeconds))
	res.AddRow("Co-partitioned Join", f1(coPart.SimSeconds))
	res.AddSeries("shuffle", shuffle.SimSeconds)
	res.AddSeries("copartitioned", coPart.SimSeconds)
	return res, nil
}

// Fig07 reproduces Figure 7: response time of a map-only scan while
// varying HDFS data locality (100/71/46/27% local). The paper's point:
// even at 27% locality the job is only ≈18% slower, justifying a cost
// model that nearly ignores locality.
func Fig07(cfg Config) (*Result, error) {
	model := cfg.model()
	res := &Result{
		Name:   "fig07",
		Title:  "Varying data locality (map-only scan)",
		Header: []string{"locality", "sim-seconds", "slowdown"},
		Notes:  "paper: 27% locality is just 18% slower than 100%",
	}
	var base float64
	for _, pct := range []int{100, 71, 46, 27} {
		store := dfs.NewStore(model.Nodes, 1, cfg.Seed)
		d := tpch.Generate(cfg.SF, cfg.Seed)
		tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Force the locality fraction: tasks run round-robin over nodes;
		// the first pct% of blocks are placed on their task's node, the
		// rest elsewhere.
		refs := tb.Lineitem.AllRefs(nil)
		for i, ref := range refs {
			taskNode := dfs.NodeID(i % model.Nodes)
			local := i*100 < pct*len(refs)
			place := taskNode
			if !local {
				place = dfs.NodeID((int(taskNode) + 1) % model.Nodes)
			}
			if err := tb.Lineitem.SetPlacement(ref, []dfs.NodeID{place}); err != nil {
				return nil, err
			}
		}
		// Block i is read on node view i mod N, which meters a block it
		// holds no replica of as a remote read.
		meter := &cluster.Meter{}
		nodes := exec.New(store, meter).EnableNodes(0)
		shares := make([][]core.BlockRef, nodes.N())
		for i, ref := range refs {
			shares[i%nodes.N()] = append(shares[i%nodes.N()], ref)
		}
		for i, share := range shares {
			if _, err := exec.Count(nodes.ScanAt(i, share, nil)); err != nil {
				return nil, err
			}
		}
		nodes.Flush()
		secs := meter.Snapshot().SimSeconds(model)
		if pct == 100 {
			base = secs
		}
		res.AddRow(fmt.Sprintf("%d%%", pct), f1(secs), fmt.Sprintf("%.2fx", secs/base))
		res.AddSeries("seconds", secs)
		res.AddSeries("slowdown", secs/base)
	}
	return res, nil
}

// Fig08 reproduces Figure 8: shuffle-join running time while growing the
// dataset (the paper uses 175–580 GB; we scale SF 1×–4×). The paper's
// point: running time is linear in dataset size, validating the
// blocks-read cost model.
func Fig08(cfg Config) (*Result, error) {
	model := cfg.model()
	res := &Result{
		Name:   "fig08",
		Title:  "Varying dataset size (shuffle join, lineitem ⋈ orders)",
		Header: []string{"scale", "rows", "sim-seconds"},
		Notes:  "paper: running time grows linearly with dataset size",
	}
	for mult := 1; mult <= 4; mult++ {
		sf := cfg.SF * float64(mult)
		store := dfs.NewStore(model.Nodes, 2, cfg.Seed)
		d := tpch.Generate(sf, cfg.Seed)
		tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		plan := &planner.Join{
			Left:  &planner.Scan{Table: tb.Lineitem},
			Right: &planner.Scan{Table: tb.Orders},
			LCol:  tpch.LOrderKey, RCol: tpch.OOrderKey,
		}
		secs, err := simSeconds(staticSession(store, model, 0, true), plan)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("%dx", mult), fi(len(d.Lineitem)+len(d.Orders)), f1(secs))
		res.AddSeries("seconds", secs)
		res.AddSeries("rows", float64(len(d.Lineitem)+len(d.Orders)))
	}
	return res, nil
}
