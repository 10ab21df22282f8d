// adaptdb-node: the multi-process distribution acceptance harness and
// worker-process entry point. One invocation is both sides of the
// cluster: re-exec'd children (spawned with the internal worker env
// var) enter the worker runtime inside MaybeWorker and never return;
// the parent is the coordinator, which replays the adaptive TPC-H
// shift schedule twice per node count — once over the in-process
// simulated fabric (the oracle) and once over real TCP worker
// processes — and self-gates on per-query checksum equality. With
// -kill (the default when there is a worker to spare) it also arms a
// mid-query node kill and requires the query to complete via replica
// failover with the oracle's exact checksum.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"adaptdb/internal/cluster"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

type killReport struct {
	Armed      bool `json:"armed"`
	QueryIndex int  `json:"query_index"`
	LiveBefore int  `json:"live_before"`
	LiveAfter  int  `json:"live_after"`
	FailedOver bool `json:"failed_over"`
}

type nodeReport struct {
	Nodes         int        `json:"nodes"`
	Workers       int        `json:"workers"`
	SimWallMs     int64      `json:"sim_wall_ms"`
	TCPWallMs     int64      `json:"tcp_wall_ms"`
	ChecksumMatch bool       `json:"checksum_match"`
	Mismatches    int        `json:"mismatches"`
	ResultRows    int        `json:"result_rows"`
	Kill          killReport `json:"kill"`
}

type report struct {
	SF           float64      `json:"sf"`
	RowsPerBlock int          `json:"rows_per_block"`
	Seed         int64        `json:"seed"`
	Queries      int          `json:"queries"`
	InProcess    bool         `json:"in_process"`
	Runs         []nodeReport `json:"runs"`
	AllMatch     bool         `json:"all_match"`
}

func main() {
	// Order matters: the dataset registry must be populated before a
	// re-exec'd worker process enters its runtime.
	datasets.Register()
	adbnet.MaybeWorker()

	var (
		sf        = flag.Float64("sf", 0.1, "TPC-H micro scale factor")
		rpb       = flag.Int("rows-per-block", 256, "rows per block")
		nodeList  = flag.String("nodes", "1,4,8", "comma-separated fragment counts to sweep")
		queries   = flag.Int("queries", 8, "schedule length (half orderkey phase, half partkey phase)")
		seed      = flag.Int64("seed", 42, "deterministic seed shared by every process")
		kill      = flag.Bool("kill", true, "arm a mid-query node kill when a replica remains to fail over to")
		inProcess = flag.Bool("inprocess", false, "run workers as goroutines instead of spawned processes")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON on stdout")
		outPath   = flag.String("out", "", "also write the JSON report to this file")
	)
	flag.Parse()
	nodes, err := parseNodes(*nodeList)
	if err == nil {
		err = run(*sf, *rpb, nodes, *queries, *seed, *kill, *inProcess, *jsonOut, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptdb-node:", err)
		os.Exit(1)
	}
}

func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -nodes entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// schedule is the compressed §7.3 join-attribute shift: orderkey
// queries (q5/q3), then partkey queries (q8/q14).
func schedule(n int) []tpch.Template {
	var out []tpch.Template
	for i := 0; i < (n+1)/2; i++ {
		out = append(out, []tpch.Template{tpch.Q5, tpch.Q3}[i%2])
	}
	for i := 0; i < n/2; i++ {
		out = append(out, []tpch.Template{tpch.Q8, tpch.Q14}[i%2])
	}
	return out
}

// rowsChecksum is the order-independent result digest used across the
// serve and net layers: the sum of per-row 64-bit FNV-1a hashes.
func rowsChecksum(rows []tuple.Tuple) uint64 {
	var sum uint64
	var scratch []byte
	for _, r := range rows {
		scratch = r.AppendBinary(scratch[:0])
		h := fnv.New64a()
		h.Write(scratch)
		sum += h.Sum64()
	}
	return sum
}

func run(sf float64, rpb int, nodeCounts []int, queries int, seed int64, kill, inProcess, jsonOut bool, outPath string) error {
	sched := schedule(queries)
	rep := report{SF: sf, RowsPerBlock: rpb, Seed: seed, Queries: len(sched), InProcess: inProcess, AllMatch: true}

	for _, nodes := range nodeCounts {
		nr, err := runNodes(sf, rpb, nodes, sched, seed, kill, inProcess)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", nodes, err)
		}
		rep.Runs = append(rep.Runs, nr)
		if !nr.ChecksumMatch || (nr.Kill.Armed && !nr.Kill.FailedOver) {
			rep.AllMatch = false
		}
		if !jsonOut {
			fmt.Printf("nodes=%d workers=%d: sim %dms, tcp %dms, match=%v", nodes, nr.Workers, nr.SimWallMs, nr.TCPWallMs, nr.ChecksumMatch)
			if nr.Kill.Armed {
				fmt.Printf(", kill@q%d failed over %d→%d live", nr.Kill.QueryIndex, nr.Kill.LiveBefore, nr.Kill.LiveAfter)
			}
			fmt.Println()
		}
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if !rep.AllMatch {
		return fmt.Errorf("acceptance gate failed: TCP execution diverged from the simulated fabric")
	}
	return nil
}

func runNodes(sf float64, rpb, nodes int, sched []tpch.Template, seed int64, kill, inProcess bool) (nodeReport, error) {
	workers := nodes
	nr := nodeReport{Nodes: nodes, Workers: workers, ChecksumMatch: true}
	model := cluster.Default()
	model.Nodes = nodes
	optCfg := optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: seed}
	params := datasets.TPCHParams{SF: sf, RowsPerBlock: rpb, Nodes: nodes, Seed: seed}

	// Simulated-fabric oracle over its own replica.
	store, data, tables, err := datasets.BuildTPCH(params)
	if err != nil {
		return nr, fmt.Errorf("build sim replica: %w", err)
	}
	sim := session.New(store, session.Config{Model: model, Optimizer: optCfg, Distributed: nodes > 1})
	cat := tables.Catalog()
	rng := rand.New(rand.NewSource(seed))
	want := make([]uint64, 0, len(sched))
	start := time.Now()
	for qi, tpl := range sched {
		q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
		if err != nil {
			return nr, fmt.Errorf("sim q%d (%s): %w", qi, tpl, err)
		}
		res, err := sim.Execute(q)
		if err != nil {
			return nr, fmt.Errorf("sim q%d (%s): %w", qi, tpl, err)
		}
		want = append(want, rowsChecksum(res.Rows))
		nr.ResultRows += res.RowCount
	}
	nr.SimWallMs = time.Since(start).Milliseconds()

	// The same stream over real TCP worker processes.
	cl, err := adbnet.Start(adbnet.Options{
		Workers:   workers,
		Fragments: nodes,
		Dataset:   datasets.TPCHName,
		Params:    params,
		Exec: adbnet.ExecConfig{
			Model:     model,
			Optimizer: adbnet.OptimizerConfig{Mode: int(optCfg.Mode), WindowSize: optCfg.WindowSize, Seed: optCfg.Seed},
		},
		InProcess:    inProcess,
		KeepAlive:    2 * time.Second,
		SetupTimeout: 15 * time.Minute, // replica builds serialize on small machines
	})
	if err != nil {
		return nr, fmt.Errorf("start cluster: %w", err)
	}
	defer cl.Close()
	store2, data2, tables2, err := datasets.BuildTPCH(params)
	if err != nil {
		return nr, fmt.Errorf("build coordinator replica: %w", err)
	}
	s := session.New(store2, session.Config{Model: model, Optimizer: optCfg, Net: cl})
	cat2 := tables2.Catalog()

	// The kill lands mid-schedule, on a worker whose fragments have a
	// surviving replica holder to fail over to.
	killAt := -1
	if kill && workers >= 2 {
		killAt = len(sched) / 2
		nr.Kill = killReport{Armed: true, QueryIndex: killAt}
	}

	rng2 := rand.New(rand.NewSource(seed))
	start = time.Now()
	for qi, tpl := range sched {
		if qi == killAt {
			nr.Kill.LiveBefore = cl.LiveWorkers()
			// Worker 2 dies on its first data frame of the query: joins
			// leave their output on the workers, so at small scale a
			// worker may write only a few data frames per query.
			cl.ArmFault(&adbnet.FaultPlan{Proc: 2, Peer: -1, Msg: "data", After: 1, Kind: adbnet.FaultKill})
		}
		q, err := session.FromSpec(cat2, tpch.NewInstance(tpl, data2, rng2).Spec())
		if err != nil {
			return nr, fmt.Errorf("tcp q%d (%s): %w", qi, tpl, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			return nr, fmt.Errorf("tcp q%d (%s): %w", qi, tpl, err)
		}
		if got := rowsChecksum(res.Rows); got != want[qi] {
			nr.ChecksumMatch = false
			nr.Mismatches++
			fmt.Fprintf(os.Stderr, "checksum drift: nodes=%d q%d (%s): tcp %016x, sim %016x\n", nodes, qi, tpl, got, want[qi])
		}
		if qi == killAt {
			nr.Kill.LiveAfter = cl.LiveWorkers()
			nr.Kill.FailedOver = nr.Kill.LiveAfter == nr.Kill.LiveBefore-1
		}
	}
	nr.TCPWallMs = time.Since(start).Milliseconds()
	return nr, nil
}
