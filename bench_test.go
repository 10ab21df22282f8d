package adaptdb

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§7). Each runs the corresponding experiment from
// internal/experiments and reports the headline series as custom
// metrics, so `go test -bench=. -benchmem` regenerates every figure.
// Run `go run ./cmd/adaptdb-bench` for the full printed tables.

import (
	"testing"

	"adaptdb/internal/experiments"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.SF = 0.001
	cfg.RowsPerBlock = 128
	return cfg
}

// BenchmarkFig01_ShuffleVsCopartitioned regenerates Figure 1.
func BenchmarkFig01_ShuffleVsCopartitioned(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig01(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Series["shuffle"][0], "shuffle-sim-s")
	b.ReportMetric(res.Series["copartitioned"][0], "copart-sim-s")
	b.ReportMetric(res.Series["shuffle"][0]/res.Series["copartitioned"][0], "speedup-x")
}

// BenchmarkFig07_DataLocality regenerates Figure 7.
func BenchmarkFig07_DataLocality(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig07(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	slow := res.Series["slowdown"]
	b.ReportMetric(slow[len(slow)-1], "slowdown-at-27pct-x")
}

// BenchmarkFig08_DatasetSize regenerates Figure 8.
func BenchmarkFig08_DatasetSize(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	secs := res.Series["seconds"]
	b.ReportMetric(secs[len(secs)-1]/secs[0], "time-ratio-4x-data")
}

// BenchmarkFig12_TPCHQueries regenerates Figure 12.
func BenchmarkFig12_TPCHQueries(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	sum, max := 0.0, 0.0
	for _, s := range res.Series["speedup"] {
		sum += s
		if s > max {
			max = s
		}
	}
	b.ReportMetric(sum/float64(len(res.Series["speedup"])), "avg-hyper-speedup-x")
	b.ReportMetric(max, "max-hyper-speedup-x")
}

// BenchmarkFig13a_SwitchingWorkload regenerates Figure 13(a).
func BenchmarkFig13a_SwitchingWorkload(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	fs, _ := experiments.Summarize(res.Series["FullScan"])
	ad, adPeak := experiments.Summarize(res.Series["AdaptDB"])
	_, rpPeak := experiments.Summarize(res.Series["Repartitioning"])
	b.ReportMetric(fs/ad, "adaptdb-vs-fullscan-x")
	b.ReportMetric(rpPeak/adPeak, "spike-damping-x")
}

// BenchmarkFig13b_ShiftingWorkload regenerates Figure 13(b).
func BenchmarkFig13b_ShiftingWorkload(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	fs, _ := experiments.Summarize(res.Series["FullScan"])
	ad, _ := experiments.Summarize(res.Series["AdaptDB"])
	b.ReportMetric(fs/ad, "adaptdb-vs-fullscan-x")
}

// BenchmarkFig14_MemoryBuffer regenerates Figure 14.
func BenchmarkFig14_MemoryBuffer(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	blocks := res.Series["blocks"]
	b.ReportMetric(blocks[0], "probe-blocks-B1")
	b.ReportMetric(blocks[len(blocks)-1], "probe-blocks-Bmax")
}

// BenchmarkFig15_QueryWindow regenerates Figure 15.
func BenchmarkFig15_QueryWindow(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	t5, p5 := experiments.Summarize(res.Series["w5"])
	t35, p35 := experiments.Summarize(res.Series["w35"])
	b.ReportMetric(t5, "w5-total-sim-s")
	b.ReportMetric(t35, "w35-total-sim-s")
	b.ReportMetric(p5/p35, "w5-vs-w35-peak-x")
}

// BenchmarkFig16_JoinLevels regenerates Figure 16 (both variants).
func BenchmarkFig16_JoinLevels(b *testing.B) {
	cfg := benchConfig()
	var withPred, noPred *experiments.Result
	for i := 0; i < b.N; i++ {
		r1, err := experiments.Fig16(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := experiments.Fig16(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		withPred, noPred = r1, r2
	}
	min := 1e18
	for _, row := range withPred.Series {
		for _, v := range row {
			if v < min {
				min = v
			}
		}
	}
	b.ReportMetric(withPred.Series["line0"][0], "pred-blocks-at-0-0")
	b.ReportMetric(min, "pred-blocks-at-best")
	b.ReportMetric(noPred.Series["line0"][0], "nopred-blocks-at-0-0")
}

// BenchmarkFig17_ILPvsApprox regenerates Figure 17 at a size where the
// exact search completes in bench time; use cmd/adaptdb-bench for the
// paper-size 128/32 instance.
func BenchmarkFig17_ILPvsApprox(b *testing.B) {
	cfg := benchConfig()
	opt := experiments.Fig17Options{
		NBlocks: 32, MBlocks: 16, MaxSteps: 200_000, Buffers: []int{4, 8, 16, 32},
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	var gap, ms float64
	for i := range res.Series["ilp"] {
		gap += res.Series["approx"][i] / res.Series["ilp"][i]
		ms += res.Series["approx_ms"][i]
	}
	n := float64(len(res.Series["ilp"]))
	b.ReportMetric(gap/n, "approx-vs-exact-x")
	b.ReportMetric(ms/n, "approx-ms")
}

// BenchmarkFig18_CMTWorkload regenerates Figure 18.
func BenchmarkFig18_CMTWorkload(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(cfg, 1500)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	fs, _ := experiments.Summarize(res.Series["FullScan"])
	ad, _ := experiments.Summarize(res.Series["AdaptDB"])
	bg, _ := experiments.Summarize(res.Series["BestGuess"])
	b.ReportMetric(fs/ad, "adaptdb-vs-fullscan-x")
	b.ReportMetric(ad/bg, "adaptdb-vs-handtuned-x")
}

// BenchmarkGroupingAlgorithms is an ablation of the §4.1 grouping
// algorithms themselves (not in the paper's figures; internal/hyperjoin
// implements them): first-fit vs bottom-up vs best-seed greedy on a
// 128x32 instance.
func BenchmarkGroupingAlgorithms(b *testing.B) {
	benchGrouping(b)
}
