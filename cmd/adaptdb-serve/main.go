// adaptdb-serve: the concurrent multi-tenant serving benchmark and
// self-gating acceptance harness. N goroutine clients replay the
// adaptive TPC-H stream (the PR-3 orderkey→partkey shift) through one
// serve.Service sharing a store, a plan cache, and a global admission
// budget; a serial replay of the identical streams is the oracle. The
// run fails (non-zero exit) when any per-(client, query) result
// checksum drifts from the serial replay, or when the plan-cache hit
// rate on the repeated-query phases falls under the gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/query"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

// sessionSchedule mirrors cmd/adaptdb-bench: 24 orderkey-phase queries
// (q5/q3 alternating) then 24 partkey-phase queries (q8/q14) — the
// §7.3 join-attribute shift compressed to bench size.
func sessionSchedule() []tpch.Template {
	var out []tpch.Template
	for i := 0; i < 24; i++ {
		out = append(out, []tpch.Template{tpch.Q5, tpch.Q3}[i%2])
	}
	for i := 0; i < 24; i++ {
		out = append(out, []tpch.Template{tpch.Q8, tpch.Q14}[i%2])
	}
	return out
}

type queryKey struct {
	Client int
	Query  int
}

type queryDigest struct {
	Checksum uint64
	Rows     int
}

type report struct {
	SF           float64 `json:"sf"`
	RowsPerBlock int     `json:"rows_per_block"`
	Nodes        int     `json:"nodes"`
	Clients      int     `json:"clients"`
	QueriesEach  int     `json:"queries_each"`
	MemBudget    int64   `json:"mem_budget"`
	Seed         int64   `json:"seed"`

	SerialWallMs     int64 `json:"serial_wall_ms"`
	ConcurrentWallMs int64 `json:"concurrent_wall_ms"`

	ChecksumMatch bool `json:"checksum_match"`
	Mismatches    int  `json:"mismatches"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	HitRateGate  float64 `json:"hit_rate_gate"`

	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`

	ResultRows int `json:"result_rows"`
}

func main() {
	// The TCP transport re-execs this binary as worker processes: the
	// dataset registry must be populated before MaybeWorker takes over
	// a re-exec'd child.
	datasets.Register()
	adbnet.MaybeWorker()

	var (
		sf        = flag.Float64("sf", 0.01, "TPC-H micro scale factor")
		rpb       = flag.Int("rows-per-block", 256, "rows per block")
		nodes     = flag.Int("nodes", 4, "simulated cluster nodes")
		clients   = flag.Int("clients", 8, "concurrent client streams (tenants)")
		mem       = flag.Int64("mem", 64<<20, "global admission memory budget in bytes (0 = unlimited)")
		seed      = flag.Int64("seed", 42, "random seed (shared by every client: identical streams = the repeated-query phases)")
		gate      = flag.Float64("hit-gate", 0.5, "minimum plan-cache hit rate; 0 disables the gate")
		transport = flag.String("transport", "sim", "execution transport: sim (in-process simulated fabric) or tcp (real worker processes; -nodes workers, serial replay vs in-process oracle)")
		tcpQ      = flag.Int("tcp-queries", 16, "schedule length for -transport tcp")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON on stdout")
		outPath   = flag.String("out", "", "also write the JSON report to this file")
	)
	flag.Parse()
	var err error
	switch *transport {
	case "sim":
		err = run(*sf, *rpb, *nodes, *clients, *mem, *seed, *gate, *jsonOut, *outPath)
	case "tcp":
		err = runTCP(*sf, *rpb, *nodes, *tcpQ, *seed, *jsonOut)
	default:
		err = fmt.Errorf("unknown -transport %q (want sim or tcp)", *transport)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptdb-serve:", err)
		os.Exit(1)
	}
}

// runTCP is the multi-process smoke: the adaptive shift schedule
// replayed serially through a session dispatching to -nodes real TCP
// worker processes, self-gated on per-query checksum equality with the
// same stream over the in-process simulated fabric.
func runTCP(sf float64, rpb, nodes, queries int, seed int64, jsonOut bool) error {
	sched := sessionSchedule()
	if queries > 0 && queries < len(sched) {
		half := sched[:24]
		sched = append(append([]tpch.Template(nil), half[:(queries+1)/2]...), sched[24:24+queries/2]...)
	}
	model := cluster.Default()
	model.Nodes = nodes
	optCfg := optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: seed}
	params := datasets.TPCHParams{SF: sf, RowsPerBlock: rpb, Nodes: nodes, Seed: seed}

	digest := func(rows []tuple.Tuple) uint64 {
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
	replay := func(s *session.Session, cat query.Catalog, data *tpch.Dataset) ([]uint64, error) {
		rng := rand.New(rand.NewSource(seed))
		out := make([]uint64, 0, len(sched))
		for qi, tpl := range sched {
			q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
			if err != nil {
				return nil, fmt.Errorf("q%d (%s): %w", qi, tpl, err)
			}
			res, err := s.Execute(q)
			if err != nil {
				return nil, fmt.Errorf("q%d (%s): %w", qi, tpl, err)
			}
			out = append(out, digest(res.Rows))
		}
		return out, nil
	}

	store, data, tables, err := datasets.BuildTPCH(params)
	if err != nil {
		return err
	}
	sim := session.New(store, session.Config{Model: model, Optimizer: optCfg, Distributed: nodes > 1})
	simStart := time.Now()
	want, err := replay(sim, tables.Catalog(), data)
	if err != nil {
		return fmt.Errorf("sim oracle: %w", err)
	}
	simWall := time.Since(simStart)

	cl, err := adbnet.Start(adbnet.Options{
		Workers:   nodes,
		Fragments: nodes,
		Dataset:   datasets.TPCHName,
		Params:    params,
		Exec: adbnet.ExecConfig{
			Model:     model,
			Optimizer: adbnet.OptimizerConfig{Mode: int(optCfg.Mode), WindowSize: optCfg.WindowSize, Seed: optCfg.Seed},
		},
		KeepAlive:    2 * time.Second,
		SetupTimeout: 10 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	defer cl.Close()
	store2, data2, tables2, err := datasets.BuildTPCH(params)
	if err != nil {
		return err
	}
	s := session.New(store2, session.Config{Model: model, Optimizer: optCfg, Net: cl})
	tcpStart := time.Now()
	got, err := replay(s, tables2.Catalog(), data2)
	if err != nil {
		return fmt.Errorf("tcp replay: %w", err)
	}
	tcpWall := time.Since(tcpStart)

	mismatches := 0
	for qi := range want {
		if got[qi] != want[qi] {
			mismatches++
			fmt.Fprintf(os.Stderr, "checksum drift: q%d: tcp %016x, sim %016x\n", qi, got[qi], want[qi])
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"sf": sf, "nodes": nodes, "queries": len(sched), "seed": seed,
			"sim_wall_ms": simWall.Milliseconds(), "tcp_wall_ms": tcpWall.Milliseconds(),
			"checksum_match": mismatches == 0, "mismatches": mismatches,
		}); err != nil {
			return err
		}
	} else {
		fmt.Printf("adaptdb-serve tcp smoke: SF=%.4g, %d workers, %d queries\n", sf, nodes, len(sched))
		fmt.Printf("  sim %6d ms / tcp %6d ms, checksums match=%v\n",
			simWall.Milliseconds(), tcpWall.Milliseconds(), mismatches == 0)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d checksum mismatches between TCP and simulated execution", mismatches)
	}
	return nil
}

func run(sf float64, rpb, nodes, clients int, mem, seed int64, gate float64, jsonOut bool, outPath string) error {
	schedule := sessionSchedule()
	data := tpch.Generate(sf, seed)
	model := cluster.Default()
	model.Nodes = nodes

	cfg := serve.Config{
		Model:       model,
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: seed},
		MemBudget:   mem,
		Distributed: true,
	}
	build := func() (*serve.Service, *tpch.Tables, error) {
		store := dfs.NewStore(nodes, 2, seed)
		tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: rpb, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return serve.New(store, cfg), tables, nil
	}

	rep := report{
		SF: sf, RowsPerBlock: rpb, Nodes: nodes, Clients: clients,
		QueriesEach: len(schedule), MemBudget: mem, Seed: seed, HitRateGate: gate,
	}

	// Serial oracle: the same per-client streams, one query at a time,
	// round-robin across clients (close to the concurrent arrival
	// order, though correctness is interleaving-independent).
	svc, tbls, err := build()
	if err != nil {
		return err
	}
	cat := tbls.Catalog()
	serial := make(map[queryKey]queryDigest, clients*len(schedule))
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed))
	}
	start := time.Now()
	for qi, tpl := range schedule {
		for c := 0; c < clients; c++ {
			q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rngs[c]).Spec())
			if err != nil {
				return fmt.Errorf("serial c%d q%d (%s): %w", c, qi, tpl, err)
			}
			res, err := svc.Stream(context.Background(), tenantID(c), q, nil)
			if err != nil {
				return fmt.Errorf("serial c%d q%d (%s): %w", c, qi, tpl, err)
			}
			serial[queryKey{c, qi}] = queryDigest{res.Checksum, res.RowCount}
		}
	}
	rep.SerialWallMs = time.Since(start).Milliseconds()

	// Concurrent run: fresh identical service, one goroutine per
	// client, same per-client streams.
	svc, tbls, err = build()
	if err != nil {
		return err
	}
	cat = tbls.Catalog()
	var (
		mu         sync.Mutex
		concurrent = make(map[queryKey]queryDigest, clients*len(schedule))
		wg         sync.WaitGroup
		firstErr   error
	)
	start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for qi, tpl := range schedule {
				var res *serve.Result
				q, err := session.FromSpec(cat, tpch.NewInstance(tpl, data, rng).Spec())
				if err == nil {
					res, err = svc.Stream(context.Background(), tenantID(c), q, nil)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("concurrent c%d q%d (%s): %w", c, qi, tpl, err)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				concurrent[queryKey{c, qi}] = queryDigest{res.Checksum, res.RowCount}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rep.ConcurrentWallMs = time.Since(start).Milliseconds()
	if firstErr != nil {
		return firstErr
	}

	rep.ChecksumMatch = true
	for k, want := range serial {
		got, ok := concurrent[k]
		if !ok || got != want {
			rep.ChecksumMatch = false
			rep.Mismatches++
			if rep.Mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "checksum drift: client %d query %d: serial %016x/%d rows, concurrent %016x/%d rows\n",
					k.Client, k.Query, want.Checksum, want.Rows, got.Checksum, got.Rows)
			}
		}
		rep.ResultRows += want.Rows
	}

	hits, misses := svc.CacheStats()
	rep.CacheHits, rep.CacheMisses = hits, misses
	if hits+misses > 0 {
		rep.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	adm := svc.Admission().Stats()
	rep.Admitted, rep.Queued, rep.Shed = adm.Admitted, adm.Queued, adm.Shed

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
	} else {
		fmt.Printf("adaptdb-serve replay: SF=%.4g, %d nodes, %d clients × %d queries, mem=%dMB\n",
			sf, nodes, clients, len(schedule), mem>>20)
		fmt.Printf("  serial     %6d ms\n", rep.SerialWallMs)
		fmt.Printf("  concurrent %6d ms  (%.2fx)\n", rep.ConcurrentWallMs,
			float64(rep.SerialWallMs)/float64(maxInt64(rep.ConcurrentWallMs, 1)))
		fmt.Printf("  checksums: match=%v (%d queries, %d rows)\n",
			rep.ChecksumMatch, len(serial), rep.ResultRows)
		fmt.Printf("  plan cache: %d hits / %d misses (%.0f%% hit rate)\n",
			hits, misses, 100*rep.CacheHitRate)
		fmt.Printf("  admission: %d admitted, %d queued, %d shed\n",
			adm.Admitted, adm.Queued, adm.Shed)
	}

	if !rep.ChecksumMatch {
		return fmt.Errorf("%d checksum mismatches between serial and concurrent replay", rep.Mismatches)
	}
	if gate > 0 && clients > 1 && rep.CacheHitRate <= gate {
		return fmt.Errorf("plan-cache hit rate %.2f below gate %.2f", rep.CacheHitRate, gate)
	}
	return nil
}

func tenantID(c int) string { return fmt.Sprintf("c%d", c) }

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
