// Command adaptdb-bench regenerates every table and figure of the
// paper's evaluation (§7) and prints the series in plain-text tables.
// Wall-clock performance is measured by the benchmark under bench/
// (bash bench/run.sh), not here.
//
// Usage:
//
//	adaptdb-bench                 # run everything at the default scale
//	adaptdb-bench -fig fig12      # one experiment
//	adaptdb-bench -sf 0.004       # larger micro scale factor
//	adaptdb-bench -list           # list experiments
//	adaptdb-bench -pr9 [-json]    # greedy vs fixed join order, and the
//	                              # RDF-style shifting workload adaptive
//	                              # vs static (self-gating on equal results)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"adaptdb/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(experiments.Config) (*experiments.Result, error)
}

func allRunners(trips int, fig17 experiments.Fig17Options) []runner {
	return []runner{
		{"fig01", "shuffle vs co-partitioned join", experiments.Fig01},
		{"fig07", "varying data locality", experiments.Fig07},
		{"fig08", "varying dataset size", experiments.Fig08},
		{"fig12", "TPC-H per-template comparison", experiments.Fig12},
		{"fig13a", "switching workload", experiments.Fig13a},
		{"fig13b", "shifting workload", experiments.Fig13b},
		{"fig14", "hyper-join memory buffer sweep", experiments.Fig14},
		{"fig15", "query window length sweep", experiments.Fig15},
		{"fig16a", "join-levels sweep (with predicates)", func(c experiments.Config) (*experiments.Result, error) {
			return experiments.Fig16(c, true)
		}},
		{"fig16b", "join-levels sweep (no predicates)", func(c experiments.Config) (*experiments.Result, error) {
			return experiments.Fig16(c, false)
		}},
		{"fig17", "ILP vs approximate grouping", func(c experiments.Config) (*experiments.Result, error) {
			return experiments.Fig17(c, fig17)
		}},
		{"fig18", "CMT 103-query trace", func(c experiments.Config) (*experiments.Result, error) {
			return experiments.Fig18(c, trips)
		}},
	}
}

func main() {
	var (
		fig      = flag.String("fig", "", "run a single experiment (e.g. fig12); empty = all")
		list     = flag.Bool("list", false, "list experiments and exit")
		pr9      = flag.Bool("pr9", false, "run the PR-9 acceptance benchmarks — greedy vs fixed join order, and the RDF-style shifting workload adaptive vs static — and exit")
		jsonOut  = flag.Bool("json", false, "with -pr9, emit the report as JSON")
		sf       = flag.Float64("sf", 0, "TPC-H micro scale factor (default 0.002)")
		rpb      = flag.Int("rows-per-block", 0, "rows per block (default 256)")
		budget   = flag.Int("budget", 0, "hyper-join buffer in blocks (default 8)")
		nodes    = flag.Int("nodes", 0, "simulated cluster nodes (default 10)")
		seed     = flag.Int64("seed", 0, "random seed (default 42)")
		trips    = flag.Int("trips", 4000, "CMT trips for fig18")
		ilpSteps = flag.Int64("ilp-steps", 0, "exact-search step cap for fig17")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file (pprof format)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	cfg := experiments.DefaultConfig()
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *rpb > 0 {
		cfg.RowsPerBlock = *rpb
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	f17 := experiments.DefaultFig17Options()
	f17.IncludeMIP = true
	if *ilpSteps > 0 {
		f17.MaxSteps = *ilpSteps
	}

	if *pr9 {
		if err := runPR9(cfg, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "pr9: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runners := allRunners(*trips, f17)
	if *list {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.name, r.desc)
		}
		return
	}
	fmt.Printf("AdaptDB evaluation harness (SF=%.4g, rows/block=%d, budget=%d blocks, %d nodes, seed=%d)\n\n",
		cfg.SF, cfg.RowsPerBlock, cfg.Budget, cfg.Nodes, cfg.Seed)
	ran := 0
	for _, r := range runners {
		if *fig != "" && !strings.EqualFold(*fig, r.name) {
			continue
		}
		res, err := r.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		res.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *fig)
		os.Exit(2)
	}
}
