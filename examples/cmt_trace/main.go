// This example replays the CMT production trace (§7.6): 103 exploratory
// queries from data scientists over a telematics dataset — trip lookups,
// trip ⋈ history joins and a batch of large scans — comparing AdaptDB
// against the full-scan baseline, and showing the adaptation finishing
// within the first handful of queries.
package main

import (
	"fmt"

	"adaptdb/internal/cluster"
	"adaptdb/internal/cmt"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/session"
)

func main() {
	const trips = 3000
	model := cluster.Default()
	data := cmt.Generate(trips, 11)
	trace := cmt.Trace(data, 12)
	fmt.Printf("CMT dataset: %d trips (%d cols), %d history rows, %d latest rows; %d-query trace\n\n",
		len(data.Trips), cmt.TripCols, len(data.History), len(data.Latest), len(trace))

	run := func(name string, mode optimizer.Mode, noPrune, forceShuffle bool) []float64 {
		store := dfs.NewStore(model.Nodes, 2, 11)
		tb, err := cmt.LoadAll(store, data, cmt.LoadConfig{RowsPerBlock: 512, Seed: 11})
		check(err)
		s := session.New(store, session.Config{
			Model:        model,
			Optimizer:    optimizer.Config{Mode: mode, WindowSize: 10, Seed: 11},
			BudgetBlocks: 8,
			ForceShuffle: forceShuffle,
		})
		s.Executor().NoPrune = noPrune
		var out []float64
		for i := range trace {
			res, err := s.Execute(session.Query{Plan: trace[i].Plan(tb)})
			check(err)
			out = append(out, res.SimSeconds)
		}
		// Report the converged layout.
		if mode == optimizer.ModeAdaptive {
			st := tb.Trips
			fmt.Printf("%s converged trips layout: ", name)
			for _, ti := range st.LiveTrees() {
				attr := "selection-only"
				if st.Trees[ti].Tree.JoinAttr >= 0 {
					attr = st.Schema.Name(st.Trees[ti].Tree.JoinAttr)
				}
				fmt.Printf("[%s: %d rows] ", attr, st.Trees[ti].Rows())
			}
			fmt.Println()
		}
		return out
	}

	adaptive := run("AdaptDB", optimizer.ModeAdaptive, false, false)
	fullScan := run("FullScan", optimizer.ModeStatic, true, true)

	fmt.Println("\nper-query sim-seconds (every 10th query):")
	fmt.Printf("  %-6s %-10s %-10s\n", "query", "FullScan", "AdaptDB")
	for i := 0; i < len(adaptive); i += 10 {
		fmt.Printf("  %-6d %-10.1f %-10.1f\n", i, fullScan[i], adaptive[i])
	}
	var ta, tf float64
	for i := range adaptive {
		ta += adaptive[i]
		tf += fullScan[i]
	}
	fmt.Printf("\ntotals: FullScan %.0f sim-s, AdaptDB %.0f sim-s (%.2fx faster; paper: ≈2.1x)\n",
		tf, ta, tf/ta)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
