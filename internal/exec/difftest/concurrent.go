// Concurrent-session differential oracle: N goroutine clients replay
// interleaved TPC-H streams through one serve.Service, and every
// per-(client, query) result must be bit-identical to a serial replay
// of the same streams on a twin service. The concurrent run records an
// interleaving log — the global order in which queries entered the
// service — and a third replay executes that exact order serially, so
// any failure is reproducible: same seed ⇒ same streams, and the log
// pins the schedule that broke.
//
// The oracle leans on a structural invariant: query results are
// layout-independent (adaptation moves blocks between trees, never
// changes table contents), so any interleaving of queries and
// adaptation steps must leave every checksum unchanged. A divergence
// means shared state bled between in-flight queries — exactly the bug
// class the serving layer's query-context refactor exists to prevent.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
)

// Step is one entry of the interleaving log: client c started its
// qi-th query. It doubles as the per-query result key.
type Step struct {
	Client, Query int
}

// QueryDigest is one query's comparable outcome.
type QueryDigest struct {
	Checksum uint64
	Rows     int
}

// ConcurrentConfig sizes a concurrent-session differential case.
// Everything descends from Seed: the dataset, each client's query
// stream, and the per-tenant optimizer seeds inside the service.
type ConcurrentConfig struct {
	Seed             int64
	SF               float64
	RowsPerBlock     int
	Nodes            int
	Clients          int
	QueriesPerClient int
	// MemBudget is the service's global admission pool (0 = unlimited).
	MemBudget int64
	// Distributed runs per-node executors and exchanges.
	Distributed bool
}

// ConcurrentReport holds the three replays' digests and the recorded
// interleaving.
type ConcurrentReport struct {
	Serial     map[Step]QueryDigest
	Concurrent map[Step]QueryDigest
	Replayed   map[Step]QueryDigest
	Log        []Step
}

// concurrentSchedule is the adaptive two-phase stream (orderkey-joining
// templates, then partkey-joining ones) cut to n queries.
func concurrentSchedule(n int) []tpch.Template {
	phase1 := []tpch.Template{tpch.Q5, tpch.Q3}
	phase2 := []tpch.Template{tpch.Q8, tpch.Q14}
	out := make([]tpch.Template, n)
	for i := range out {
		if i < n/2 {
			out[i] = phase1[i%2]
		} else {
			out[i] = phase2[i%2]
		}
	}
	return out
}

// clientRng seeds client c's instance-parameter stream. Distinct per
// client: interleaved DIFFERENT streams are a stronger isolation test
// than identical ones.
func clientRng(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1009 + int64(c)))
}

// RunConcurrent executes the three replays and cross-checks them.
// The returned error carries the first divergence and the case seed;
// the report is returned in every case for inspection.
func RunConcurrent(cfg ConcurrentConfig) (*ConcurrentReport, error) {
	if cfg.RowsPerBlock == 0 {
		cfg.RowsPerBlock = 128
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	data := tpch.Generate(cfg.SF, cfg.Seed)
	sched := concurrentSchedule(cfg.QueriesPerClient)
	model := cluster.Default()
	model.Nodes = cfg.Nodes

	build := func() (*serve.Service, *tpch.Tables, error) {
		store := dfs.NewStore(cfg.Nodes, 2, cfg.Seed)
		tbls, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		return serve.New(store, serve.Config{
			Model:       model,
			Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: cfg.Seed},
			MemBudget:   cfg.MemBudget,
			Distributed: cfg.Distributed,
		}), tbls, nil
	}

	run := func(svc *serve.Service, tbls *tpch.Tables, rng *rand.Rand, c, qi int) (QueryDigest, error) {
		in := tpch.NewInstance(sched[qi], data, rng)
		res, err := svc.Stream(context.Background(), fmt.Sprintf("c%d", c), session.Query{
			Label: string(sched[qi]), Plan: in.Plan(tbls),
		}, nil)
		if err != nil {
			return QueryDigest{}, fmt.Errorf("client %d query %d (%s): %w", c, qi, sched[qi], err)
		}
		return QueryDigest{res.Checksum, res.RowCount}, nil
	}

	rep := &ConcurrentReport{
		Serial:     make(map[Step]QueryDigest),
		Concurrent: make(map[Step]QueryDigest),
		Replayed:   make(map[Step]QueryDigest),
	}

	// Replay 1 — serial oracle, round-robin client order.
	svc, tbls, err := build()
	if err != nil {
		return rep, err
	}
	rngs := make([]*rand.Rand, cfg.Clients)
	for c := range rngs {
		rngs[c] = clientRng(cfg.Seed, c)
	}
	for qi := 0; qi < cfg.QueriesPerClient; qi++ {
		for c := 0; c < cfg.Clients; c++ {
			d, err := run(svc, tbls, rngs[c], c, qi)
			if err != nil {
				return rep, fmt.Errorf("serial: %w", err)
			}
			rep.Serial[Step{c, qi}] = d
		}
	}

	// Replay 2 — concurrent, one goroutine per client, recording the
	// arrival interleaving.
	svc, tbls, err = build()
	if err != nil {
		return rep, err
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := clientRng(cfg.Seed, c)
			for qi := 0; qi < cfg.QueriesPerClient; qi++ {
				mu.Lock()
				rep.Log = append(rep.Log, Step{c, qi})
				mu.Unlock()
				d, err := run(svc, tbls, rng, c, qi)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("concurrent: %w", err)
				}
				rep.Concurrent[Step{c, qi}] = d
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return rep, firstErr
	}

	// Replay 3 — the recorded interleaving, serially. Per-client query
	// order is preserved by construction (each goroutine logged its own
	// steps in order), so each client's rng advances identically.
	svc, tbls, err = build()
	if err != nil {
		return rep, err
	}
	for c := range rngs {
		rngs[c] = clientRng(cfg.Seed, c)
	}
	for _, s := range rep.Log {
		d, err := run(svc, tbls, rngs[s.Client], s.Client, s.Query)
		if err != nil {
			return rep, fmt.Errorf("log replay: %w", err)
		}
		rep.Replayed[Step{s.Client, s.Query}] = d
	}

	// Cross-check all three.
	for qi := 0; qi < cfg.QueriesPerClient; qi++ {
		for c := 0; c < cfg.Clients; c++ {
			k := Step{c, qi}
			want := rep.Serial[k]
			if got := rep.Concurrent[k]; got != want {
				return rep, fmt.Errorf(
					"seed %d: concurrent diverged at client %d query %d: %016x/%d rows vs serial %016x/%d rows (interleaving log has %d steps)",
					cfg.Seed, c, qi, got.Checksum, got.Rows, want.Checksum, want.Rows, len(rep.Log))
			}
			if got := rep.Replayed[k]; got != want {
				return rep, fmt.Errorf(
					"seed %d: log replay diverged at client %d query %d: %016x/%d rows vs serial %016x/%d rows",
					cfg.Seed, c, qi, got.Checksum, got.Rows, want.Checksum, want.Rows)
			}
		}
	}
	return rep, nil
}
