package experiments

import (
	"math/rand"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
)

// workloadKind selects the §7.3 workload shapes.
type workloadKind int

const (
	switching workloadKind = iota
	shifting
)

// templateSchedule produces the per-query template choice for the two
// §7.3 workloads over the eight templates:
//
//   - switching: 20 queries per template, hard cut-over (160 queries);
//   - shifting: 20-query linear cross-fades between consecutive
//     templates (140 queries).
func templateSchedule(kind workloadKind, rng *rand.Rand) []tpch.Template {
	ts := tpch.AllTemplates
	var out []tpch.Template
	switch kind {
	case switching:
		for _, tpl := range ts {
			for i := 0; i < 20; i++ {
				out = append(out, tpl)
			}
		}
	case shifting:
		// 7 transitions of 20 queries each; the probability of the next
		// template grows 1/20 per query.
		for t := 0; t < len(ts)-1; t++ {
			for i := 0; i < 20; i++ {
				p := float64(i+1) / 20
				if rng.Float64() < p {
					out = append(out, ts[t+1])
				} else {
					out = append(out, ts[t])
				}
			}
		}
	}
	return out
}

// systemConfig describes one line of Fig. 13 / Fig. 18.
type systemConfig struct {
	name string
	mode optimizer.Mode
	// forceShuffle disables hyper-join; noPrune disables all block
	// skipping (the Full Scan baseline does both).
	forceShuffle bool
	noPrune      bool
	// bestGuess loads Fig. 18's hand-tuned CMT layout.
	bestGuess bool
}

// session opens the system's session over store: window size 10, and
// FullScan's pruning off.
func (sys systemConfig) session(store *dfs.Store, model cluster.CostModel, cfg Config) *session.Session {
	s := session.New(store, session.Config{
		Model:        model,
		Optimizer:    optimizer.Config{Mode: sys.mode, WindowSize: 10, Seed: cfg.Seed},
		BudgetBlocks: cfg.Budget,
		ForceShuffle: sys.forceShuffle,
	})
	s.Executor().NoPrune = sys.noPrune
	return s
}

func fig13Systems() []systemConfig {
	return []systemConfig{
		{name: "FullScan", mode: optimizer.ModeStatic, forceShuffle: true, noPrune: true},
		{name: "Repartitioning", mode: optimizer.ModeFullRepartition},
		{name: "AdaptDB", mode: optimizer.ModeAdaptive},
	}
}

// runChangingWorkload executes a template schedule under each system
// config, returning per-query simulated seconds per system.
func runChangingWorkload(cfg Config, schedule []tpch.Template) (map[string][]float64, error) {
	model := cfg.model()
	d := tpch.Generate(cfg.SF, cfg.Seed)
	out := make(map[string][]float64)
	for _, sys := range fig13Systems() {
		store := dfs.NewStore(model.Nodes, 2, cfg.Seed)
		// §7.3: "Initially, each table is randomly partitioned by the
		// upfront partitioner."
		tb, err := tpch.LoadAll(store, d, tpch.LoadConfig{
			RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		s := sys.session(store, model, cfg)

		rng := rand.New(rand.NewSource(cfg.Seed + 31))
		var series []float64
		for _, tpl := range schedule {
			secs, err := simSeconds(s, tpch.NewInstance(tpl, d, rng).Plan(tb))
			if err != nil {
				return nil, err
			}
			series = append(series, secs)
		}
		out[sys.name] = series
	}
	return out, nil
}

func changingWorkloadResult(name, title string, series map[string][]float64) *Result {
	res := &Result{
		Name:   name,
		Title:  title,
		Header: []string{"query", "FullScan", "Repartitioning", "AdaptDB"},
		Notes:  "paper: AdaptDB amortizes repartitioning spikes and converges ≥2x below full scan",
	}
	n := len(series["AdaptDB"])
	var totals [3]float64
	for i := 0; i < n; i++ {
		fs, rp, ad := series["FullScan"][i], series["Repartitioning"][i], series["AdaptDB"][i]
		res.AddRow(fi(i), f1(fs), f1(rp), f1(ad))
		totals[0] += fs
		totals[1] += rp
		totals[2] += ad
	}
	res.AddRow("TOTAL", f1(totals[0]), f1(totals[1]), f1(totals[2]))
	res.Series = make(map[string][]float64, len(series))
	for k, v := range series {
		res.Series[k] = v
	}
	return res
}

// Fig13a reproduces Figure 13(a): the switching workload (20 queries
// per template, hard switches, 160 queries).
func Fig13a(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	series, err := runChangingWorkload(cfg, templateSchedule(switching, rng))
	if err != nil {
		return nil, err
	}
	return changingWorkloadResult("fig13a", "Switching workload on TPC-H (sim-seconds per query)", series), nil
}

// Fig13b reproduces Figure 13(b): the shifting workload (gradual 20-query
// cross-fades, 140 queries).
func Fig13b(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	series, err := runChangingWorkload(cfg, templateSchedule(shifting, rng))
	if err != nil {
		return nil, err
	}
	return changingWorkloadResult("fig13b", "Shifting workload on TPC-H (sim-seconds per query)", series), nil
}

// Summarize reduces a per-query series to total and peak seconds —
// handy for the bench reporter.
func Summarize(series []float64) (total float64, peak float64) {
	for _, v := range series {
		total += v
		if v > peak {
			peak = v
		}
	}
	return
}
