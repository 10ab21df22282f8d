package exec_test

// Micro-benchmarks of the Operator/Batch pipeline on TPC-H-shaped data:
// a predicated lineitem scan, the lineitem⋈orders join on orderkey
// (unbudgeted, starved-budget and per-worker-count) and the hyper-join,
// each consumed batch-at-a-time without materializing output. The
// pipelined joins also report their output's rows/batch. JoinProbe
// isolates the hash join's probe on synthetic keys.
//
// Run with:
//
//	go test ./internal/exec -bench=Scan -benchmem
//	go test ./internal/exec -bench=ShuffleJoin -benchmem -benchsf 0.1
//	go test ./internal/exec -run '^$' -bench=JoinProbe

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
	"adaptdb/internal/tuple"
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

// shuffled routes op through the one-node fabric's shuffle, which
// charges every row eq. 1's CSJ factor — a shuffle join's input.
func shuffled(ex *exec.Executor, op exec.Operator, key int) exec.Operator {
	return ex.ExecFabric().Shuffle([]exec.Operator{op}, key, exec.ChargeShuffle).Output(0)
}

// shipPreds keeps roughly half of lineitem, so the scan benchmarks
// exercise predicate filtering, not just block reads.
func shipPreds() []predicate.Predicate {
	mid := (tpch.StartDate + tpch.EndDate) / 2
	return []predicate.Predicate{predicate.NewCmp(tpch.LShipDate, predicate.LT, value.NewDate(mid))}
}

// drainJoin drains a join without materializing its output and reports
// its rows and its output batches' mean fill, rows/batch: a probe worker
// sends only full DefaultBatchSize-row batches and one remainder.
func drainJoin(b *testing.B, op exec.Operator) {
	b.Helper()
	batches := 0
	n, err := exec.Drain(nil, op, func(*exec.Batch) error { batches++; return nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "rows")
	b.ReportMetric(float64(n)/float64(max(batches, 1)), "rows/batch")
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
			shuffled(ex, ex.TableScanOp(env.ord, nil), tpch.OOrderKey), tpch.OOrderKey,
			shuffled(ex, ex.TableScanOp(env.line, nil), tpch.LOrderKey), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true},
		)
		drainJoin(b, op)
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
		drainJoin(b, op)
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
		rows, err := exec.Collect(ex.NewHyperJoinOp(exec.PlanHyper(rRefs, tpch.LOrderKey, sRefs, tpch.OOrderKey, 8), nil, nil, false))
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
		op := ex.NewHyperJoinOp(exec.PlanHyper(rRefs, tpch.LOrderKey, sRefs, tpch.OOrderKey, 8), nil, nil, false)
		drainJoin(b, op)
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
			shuffled(ex, ex.TableScanOp(env.ord, nil), tpch.OOrderKey), tpch.OOrderKey,
			shuffled(ex, ex.TableScanOp(env.line, nil), tpch.LOrderKey), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true},
		)
		drainJoin(b, op)
	}
}

func BenchmarkShuffleJoinPipelinedWorkers1(b *testing.B) { benchJoinWorkers(b, 1) }
func BenchmarkShuffleJoinPipelinedWorkers2(b *testing.B) { benchJoinWorkers(b, 2) }
func BenchmarkShuffleJoinPipelinedWorkers4(b *testing.B) { benchJoinWorkers(b, 4) }

// colsSource replays a columnar store as batches of up to size rows,
// each a pooled batch holding a flat copy of its range — a probe input
// that costs a memmove per column and boxes nothing.
type colsSource struct {
	src       *tuple.Columns
	size, pos int
}

func (s *colsSource) Open() error { s.pos = 0; return nil }

func (s *colsSource) Next() (*exec.Batch, error) {
	if s.pos >= s.src.FullLen() {
		return nil, nil
	}
	to := min(s.pos+s.size, s.src.FullLen())
	b := exec.NewColBatch(s.src.NumCols())
	b.Cols().AppendRange(s.src, s.pos, to)
	s.pos = to
	return b, nil
}

func (s *colsSource) Close() error { return nil }

// BenchmarkJoinProbe measures the hash join's probe per probe row, as
// one node of a 2-node shuffle join sees it: every key, build and
// probe, hashes with the same low bit, the bit a hash exchange routes
// on (hash % nodes). A 5,000-row build is probed by 256-row batches
// (the benchmark's block size) of which 5% of rows match. One worker,
// so ns/probe-row is the loop's own cost plus a small fixed build.
func BenchmarkJoinProbe(b *testing.B) {
	const buildRows, probeRows, missKeys = 5000, 1 << 18, 50000
	var keys []int64 // distinct keys whose hashes share their low bit
	for k := int64(0); len(keys) < buildRows+missKeys; k++ {
		if value.NewInt(k).Hash64()&1 == 0 {
			keys = append(keys, k)
		}
	}
	build := make([]tuple.Tuple, buildRows)
	for i := range build {
		build[i] = tuple.Tuple{value.NewInt(keys[i]), value.NewInt(int64(i))}
	}
	probe := tuple.NewColumns(2)
	for r := 0; r < probeRows; r++ {
		k := keys[buildRows+r%missKeys]
		if r%20 == 0 {
			k = keys[r*7919%buildRows]
		}
		probe.AppendRow(tuple.Tuple{value.NewInt(k), value.NewInt(int64(r))})
	}
	ex := exec.New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ex.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := exec.Count(ex.JoinOp(exec.NewSource(build), 0, &colsSource{src: probe, size: 256}, 0, exec.JoinOptions{}))
		if err != nil {
			b.Fatal(err)
		}
		if n != probeRows/20+1 {
			b.Fatalf("%d rows, want %d", n, probeRows/20+1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeRows), "ns/probe-row")
}
