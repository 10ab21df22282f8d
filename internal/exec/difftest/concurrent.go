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
	"adaptdb/internal/query"
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

	build := func() (*serve.Service, query.Catalog, error) {
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
		}), tbls.Catalog(), nil
	}

	run := func(svc *serve.Service, cat query.Catalog, rng *rand.Rand, s Step) (QueryDigest, error) {
		q, err := session.FromSpec(cat, tpch.NewInstance(sched[s.Query], data, rng).Spec())
		var res *serve.Result
		if err == nil {
			res, err = svc.Stream(context.Background(), fmt.Sprintf("c%d", s.Client), q, nil)
		}
		if err != nil {
			return QueryDigest{}, fmt.Errorf("client %d query %d (%s): %w", s.Client, s.Query, sched[s.Query], err)
		}
		return QueryDigest{res.Checksum, res.RowCount}, nil
	}

	// replay runs steps serially on a fresh service; each client draws
	// its instance parameters from its own stream.
	replay := func(what string, steps []Step) (map[Step]QueryDigest, error) {
		svc, cat, err := build()
		if err != nil {
			return nil, err
		}
		rngs := make([]*rand.Rand, cfg.Clients)
		for c := range rngs {
			rngs[c] = clientRng(cfg.Seed, c)
		}
		out := make(map[Step]QueryDigest, len(steps))
		for _, s := range steps {
			d, err := run(svc, cat, rngs[s.Client], s)
			if err != nil {
				return out, fmt.Errorf("%s: %w", what, err)
			}
			out[s] = d
		}
		return out, nil
	}

	// Replay 1 — serial oracle, round-robin client order.
	rep := &ConcurrentReport{Concurrent: make(map[Step]QueryDigest)}
	var roundRobin []Step
	for qi := 0; qi < cfg.QueriesPerClient; qi++ {
		for c := 0; c < cfg.Clients; c++ {
			roundRobin = append(roundRobin, Step{c, qi})
		}
	}
	var err error
	if rep.Serial, err = replay("serial", roundRobin); err != nil {
		return rep, err
	}

	// Replay 2 — concurrent, one goroutine per client, recording the
	// arrival interleaving.
	svc, cat, err := build()
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
				d, err := run(svc, cat, rng, Step{c, qi})
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
	if rep.Replayed, err = replay("log replay", rep.Log); err != nil {
		return rep, err
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
