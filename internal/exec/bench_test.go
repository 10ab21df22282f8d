package exec_test

// Micro-benchmarks of the Operator/Batch pipeline on TPC-H-shaped data:
// a predicated lineitem scan, the lineitem⋈orders join on orderkey
// (unbudgeted, starved-budget and per-worker-count) and the hyper-join,
// each consumed batch-at-a-time without materializing output.
//
// Run with:
//
//	go test ./internal/exec -bench=Scan -benchmem
//	go test ./internal/exec -bench=ShuffleJoin -benchmem -benchsf 0.1

import (
	"flag"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tpch"
	"adaptdb/internal/value"
)

// benchSF is the TPC-H scale factor for the exec benchmarks. The
// acceptance target is SF ≥ 0.1 (~600k lineitem rows); the default
// stays there while -benchsf lets a laptop run smaller.
var benchSF = flag.Float64("benchsf", 0.1, "TPC-H scale factor for exec benchmarks")

type benchEnv struct {
	store *dfs.Store
	line  *core.Table
	ord   *core.Table
}

var (
	benchOnce sync.Once
	benchData *benchEnv
	benchErr  error
)

// benchTables generates and loads lineitem and orders co-partitioned on
// orderkey, once per process.
func benchTables(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		ds := tpch.Generate(*benchSF, 42)
		store := dfs.NewStore(10, 3, 7)
		line, err := core.Load(store, "lineitem", tpch.LineitemSchema, ds.Lineitem, core.LoadOptions{
			RowsPerBlock: 4096, Seed: 1, JoinAttr: tpch.LOrderKey,
		})
		if err != nil {
			benchErr = err
			return
		}
		ord, err := core.Load(store, "orders", tpch.OrdersSchema, ds.Orders, core.LoadOptions{
			RowsPerBlock: 4096, Seed: 2, JoinAttr: tpch.OOrderKey,
		})
		if err != nil {
			benchErr = err
			return
		}
		benchData = &benchEnv{store: store, line: line, ord: ord}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func benchExecutor(env *benchEnv) *exec.Executor {
	return exec.New(env.store, &cluster.Meter{})
}

// shipPreds keeps roughly half of lineitem, so the scan benchmarks
// exercise predicate filtering, not just block reads.
func shipPreds() []predicate.Predicate {
	mid := (tpch.StartDate + tpch.EndDate) / 2
	return []predicate.Predicate{predicate.NewCmp(tpch.LShipDate, predicate.LT, value.NewDate(mid))}
}

func BenchmarkScanPipelined(b *testing.B) {
	env := benchTables(b)
	ex := benchExecutor(env)
	preds := shipPreds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := exec.Count(ex.TableScanOp(env.line, preds))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

func BenchmarkShuffleJoinPipelined(b *testing.B) {
	env := benchTables(b)
	ex := benchExecutor(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Build on orders (the smaller side), stream lineitem through the
		// probe, and aggregate without materializing the output.
		op := ex.JoinOp(
			ex.TableScanOp(env.ord, nil), tpch.OOrderKey,
			ex.TableScanOp(env.line, nil), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true, BuildCharge: exec.ChargeShuffle, ProbeCharge: exec.ChargeShuffle},
		)
		n, err := exec.Count(op)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

// BenchmarkSpillJoinPipelined is the shuffle join under a starved
// memory budget (~1/8 of the SF 0.1 build side), the spilling hybrid
// hash join's hot path.
func BenchmarkSpillJoinPipelined(b *testing.B) {
	env := benchTables(b)
	ex := benchExecutor(env)
	ex.Mem = exec.NewMemBudget(6 << 20)
	ex.SpillDir = b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ex.JoinOp(
			ex.TableScanOp(env.ord, nil), tpch.OOrderKey,
			ex.TableScanOp(env.line, nil), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true, BuildRowsEst: 150000},
		)
		n, err := exec.Count(op)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

func BenchmarkHyperJoinMaterialized(b *testing.B) {
	env := benchTables(b)
	ex := benchExecutor(env)
	rRefs := env.line.Refs(0, nil)
	sRefs := env.ord.Refs(0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exec.Collect(ex.NewHyperJoinOp(rRefs, nil, tpch.LOrderKey, sRefs, nil, tpch.OOrderKey, 8, false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkHyperJoinPipelined(b *testing.B) {
	env := benchTables(b)
	ex := benchExecutor(env)
	rRefs := env.line.Refs(0, nil)
	sRefs := env.ord.Refs(0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ex.NewHyperJoinOp(rRefs, nil, tpch.LOrderKey, sRefs, nil, tpch.OOrderKey, 8, false)
		n, err := exec.Count(op)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

// benchJoinWorkers measures the partition-parallel join at a fixed
// worker count, streaming the probe side and aggregating without
// materializing output — the scaling curve of the radix join core.
func benchJoinWorkers(b *testing.B, workers int) {
	env := benchTables(b)
	ex := benchExecutor(env)
	ex.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ex.JoinOp(
			ex.TableScanOp(env.ord, nil), tpch.OOrderKey,
			ex.TableScanOp(env.line, nil), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true, BuildCharge: exec.ChargeShuffle, ProbeCharge: exec.ChargeShuffle},
		)
		n, err := exec.Count(op)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

func BenchmarkShuffleJoinPipelinedWorkers1(b *testing.B) { benchJoinWorkers(b, 1) }
func BenchmarkShuffleJoinPipelinedWorkers2(b *testing.B) { benchJoinWorkers(b, 2) }
func BenchmarkShuffleJoinPipelinedWorkers4(b *testing.B) { benchJoinWorkers(b, 4) }
