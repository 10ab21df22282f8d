package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// testConfig is small enough to run every figure quickly while keeping
// tables dozens of blocks wide.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SF = 0.001
	cfg.RowsPerBlock = 128
	return cfg
}

func TestFig01ShuffleSlower(t *testing.T) {
	res, err := Fig01(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	sh := res.Series["shuffle"][0]
	co := res.Series["copartitioned"][0]
	if sh <= co {
		t.Fatalf("shuffle %.1f must cost more than co-partitioned %.1f", sh, co)
	}
	if ratio := sh / co; ratio < 1.5 {
		t.Errorf("shuffle/co-partitioned ratio %.2f, paper reports ≈2x", ratio)
	}
}

func TestFig07LocalityNearlyIrrelevant(t *testing.T) {
	res, err := Fig07(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	slow := res.Series["slowdown"]
	if len(slow) != 4 {
		t.Fatalf("want 4 locality points, got %d", len(slow))
	}
	// Paper: 27% locality is only ≈18% slower.
	if worst := slow[len(slow)-1]; worst > 1.18 || worst < 1.0 {
		t.Errorf("27%% locality slowdown %.3f outside (1.0, 1.18]", worst)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i]+1e-9 < slow[i-1] {
			t.Errorf("slowdown not monotone: %v", slow)
		}
	}
}

func TestFig08Linear(t *testing.T) {
	res, err := Fig08(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	secs := res.Series["seconds"]
	rows := res.Series["rows"]
	// Cost per row stays within 15% across sizes: linear scaling.
	base := secs[0] / rows[0]
	for i := 1; i < len(secs); i++ {
		perRow := secs[i] / rows[i]
		if perRow < base*0.85 || perRow > base*1.15 {
			t.Errorf("size %d: cost/row %.4g deviates from %.4g — not linear", i, perRow, base)
		}
	}
}

func TestFig12HyperWins(t *testing.T) {
	res, err := Fig12(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	hyper := res.Series["hyper"]
	shuffle := res.Series["shuffle"]
	amoeba := res.Series["amoeba"]
	pref := res.Series["pref"]
	if len(hyper) != 7 {
		t.Fatalf("expected 7 templates, got %d", len(hyper))
	}
	sumSpeedup := 0.0
	amoebaWins := 0
	var hyperTotal, amoebaTotal float64
	for i := range hyper {
		if hyper[i] > shuffle[i]*1.01 {
			t.Errorf("template %d: hyper %.2f slower than shuffle %.2f", i, hyper[i], shuffle[i])
		}
		if hyper[i] > pref[i] {
			t.Errorf("template %d: hyper %.2f slower than PREF %.2f (paper: AdaptDB always beats PREF)", i, hyper[i], pref[i])
		}
		if hyper[i] > amoeba[i] {
			amoebaWins++
		}
		hyperTotal += hyper[i]
		amoebaTotal += amoeba[i]
		sumSpeedup += shuffle[i] / hyper[i]
	}
	// At micro scale the shuffle-avoidance gain on ultra-selective
	// templates (q19) can drop below Amoeba's extra pruning levels; the
	// paper-scale claim we hold is: hyper beats Amoeba on nearly all
	// templates and in total.
	if amoebaWins > 1 {
		t.Errorf("Amoeba beat hyper on %d of 7 templates; at most 1 tolerated", amoebaWins)
	}
	if hyperTotal >= amoebaTotal {
		t.Errorf("hyper total %.1f should beat Amoeba total %.1f", hyperTotal, amoebaTotal)
	}
	if avg := sumSpeedup / float64(len(hyper)); avg < 1.25 {
		t.Errorf("average hyper speedup %.2fx, paper reports 1.60x — too small", avg)
	}
}

func TestFig13aAdaptDBBeatsBaselines(t *testing.T) {
	res, err := Fig13a(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	fsTotal, _ := Summarize(res.Series["FullScan"])
	rpTotal, rpPeak := Summarize(res.Series["Repartitioning"])
	adTotal, adPeak := Summarize(res.Series["AdaptDB"])
	if adTotal >= fsTotal {
		t.Errorf("AdaptDB total %.0f should beat FullScan %.0f", adTotal, fsTotal)
	}
	if adPeak >= rpPeak {
		t.Errorf("AdaptDB peak %.0f should be below Repartitioning's spike %.0f", adPeak, rpPeak)
	}
	if len(res.Series["AdaptDB"]) != 160 {
		t.Errorf("switching workload should have 160 queries, got %d", len(res.Series["AdaptDB"]))
	}
	_ = rpTotal
}

func TestFig13bAdaptDBBeatsFullScan(t *testing.T) {
	res, err := Fig13b(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	fsTotal, _ := Summarize(res.Series["FullScan"])
	adTotal, adPeak := Summarize(res.Series["AdaptDB"])
	_, rpPeak := Summarize(res.Series["Repartitioning"])
	if adTotal >= fsTotal {
		t.Errorf("AdaptDB total %.0f should beat FullScan %.0f", adTotal, fsTotal)
	}
	if adPeak >= rpPeak {
		t.Errorf("AdaptDB peak %.0f should be below Repartitioning's %.0f", adPeak, rpPeak)
	}
	if len(res.Series["AdaptDB"]) != 140 {
		t.Errorf("shifting workload should have 140 queries, got %d", len(res.Series["AdaptDB"]))
	}
}

func TestFig14BufferMonotone(t *testing.T) {
	res, err := Fig14(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	blocks := res.Series["blocks"]
	for i := 1; i < len(blocks); i++ {
		if blocks[i] > blocks[i-1] {
			t.Errorf("probe blocks increased with larger buffer: %v", blocks)
		}
	}
	// Flattens: the last doubling should improve far less than the first.
	firstGain := blocks[0] - blocks[1]
	lastGain := blocks[len(blocks)-2] - blocks[len(blocks)-1]
	if lastGain > firstGain {
		t.Errorf("no flattening: first gain %.0f, last gain %.0f", firstGain, lastGain)
	}
}

func TestFig15WindowSizes(t *testing.T) {
	res, err := Fig15(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	if len(res.Series["w5"]) != 70 || len(res.Series["w35"]) != 70 {
		t.Fatalf("workload should be 70 queries: %d / %d", len(res.Series["w5"]), len(res.Series["w35"]))
	}
	t5, _ := Summarize(res.Series["w5"])
	t35, _ := Summarize(res.Series["w35"])
	if t5 <= 0 || t35 <= 0 {
		t.Errorf("degenerate totals: %v %v", t5, t35)
	}
}

func TestFig16PredicateSweetSpot(t *testing.T) {
	cfg := testConfig()
	res, err := Fig16(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	// Locate the grid minimum; with predicates the no-join corner (0,0)
	// must not be optimal (paper: minimum near half the levels).
	minV := 1e18
	for _, row := range res.Series {
		for _, v := range row {
			if v < minV {
				minV = v
			}
		}
	}
	zeroZero := res.Series["line0"][0]
	if minV >= zeroZero {
		t.Errorf("(0,0)=%v should be beaten by some join-level configuration (min=%v)", zeroZero, minV)
	}
}

func TestFig16NoPredicatesMoreLevelsBetter(t *testing.T) {
	cfg := testConfig()
	res, err := Fig16(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	// Without predicates the fully joined corner beats the unjoined one.
	maxLine := -1
	for name := range res.Series {
		var idx int
		if _, err := fmt.Sscanf(name, "line%d", &idx); err == nil && idx > maxLine {
			maxLine = idx
		}
	}
	firstRow := res.Series["line0"]
	lastRow := res.Series[fmt.Sprintf("line%d", maxLine)]
	if lastRow[len(lastRow)-1] > firstRow[0] {
		t.Errorf("full join levels %v should not read more than none %v",
			lastRow[len(lastRow)-1], firstRow[0])
	}
}

func TestFig17ApproxNearOptimalAndFast(t *testing.T) {
	cfg := testConfig()
	opt := Fig17Options{
		NBlocks: 32, MBlocks: 16, MaxSteps: 500_000,
		Buffers: []int{4, 8, 16, 32}, IncludeMIP: true,
	}
	res, err := Fig17(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for i := range res.Series["ilp"] {
		ilpCost := res.Series["ilp"][i]
		appCost := res.Series["approx"][i]
		if appCost < ilpCost {
			t.Errorf("buffer %d: approx %v beats exact incumbent %v — exact is broken", i, appCost, ilpCost)
		}
		if appCost > ilpCost*1.6 {
			t.Errorf("buffer %d: approx %v far from exact %v (paper: reasonably good)", i, appCost, ilpCost)
		}
		if res.Series["approx_ms"][i] > 100 {
			t.Errorf("approximate algorithm took %vms; paper: ~1ms", res.Series["approx_ms"][i])
		}
	}
	// The MIP formulation agrees with the specialized search, and the
	// solver proved it: a node cap must not pass as an optimum.
	if res.Series["mip_small"][0] != res.Series["exact_small"][0] {
		t.Errorf("MIP %v != exact %v on the cross-check instance",
			res.Series["mip_small"][0], res.Series["exact_small"][0])
	}
	if !strings.Contains(res.Notes, "optimal=true") {
		t.Errorf("the MIP cross-check stopped before proving its optimum: %s", res.Notes)
	}
}

func TestFig18CMTTrace(t *testing.T) {
	cfg := testConfig()
	res, err := Fig18(cfg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	fsTotal, _ := Summarize(res.Series["FullScan"])
	adTotal, _ := Summarize(res.Series["AdaptDB"])
	if adTotal >= fsTotal {
		t.Errorf("AdaptDB %.0f should beat FullScan %.0f (paper: ≈2.1x)", adTotal, fsTotal)
	}
	// The paper's spike comparison concerns the adaptation period (the
	// full repartition lands around query 5, costing 2945s vs AdaptDB's
	// ≈400s/query overhead); the 30–50 big-scan batch spikes everyone, so
	// compare peaks over the first 15 queries only.
	_, adEarlyPeak := Summarize(res.Series["AdaptDB"][:15])
	_, rpEarlyPeak := Summarize(res.Series["Repartitioning"][:15])
	if adEarlyPeak >= rpEarlyPeak {
		t.Errorf("AdaptDB early peak %.1f should be below Repartitioning's spike %.1f", adEarlyPeak, rpEarlyPeak)
	}
	// AdaptDB converges toward the hand-tuned layout: its tail (after
	// adaptation) should be within 2x of BestGuess's tail.
	tailAD, _ := Summarize(res.Series["AdaptDB"][60:])
	tailBG, _ := Summarize(res.Series["BestGuess"][60:])
	if tailAD > tailBG*2 {
		t.Errorf("AdaptDB tail %.0f too far above BestGuess tail %.0f", tailAD, tailBG)
	}
	if len(res.Series["AdaptDB"]) != 103 {
		t.Errorf("trace should be 103 queries")
	}
}

func TestResultPrinting(t *testing.T) {
	res := &Result{Name: "x", Title: "t", Header: []string{"a", "b"}, Notes: "n"}
	res.AddRow("1", "2")
	var buf bytes.Buffer
	res.Fprint(&buf)
	if buf.Len() == 0 {
		t.Errorf("nothing printed")
	}
}
