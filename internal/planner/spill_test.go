package planner

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
)

func TestSpillEstimateZeroWithoutBudget(t *testing.T) {
	ex := exec.New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	r := NewRunner(ex, cluster.Default())
	if got := r.spillEstimate(1_000_000, 1_000_000); got != 0 {
		t.Errorf("unbudgeted spill estimate = %v, want 0", got)
	}
}

func TestSpillEstimateGrowsAsBudgetShrinks(t *testing.T) {
	ex := exec.New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	r := NewRunner(ex, cluster.Default())
	const buildRows, probeRows = 10_000, 50_000
	full := int64(buildRows) * estRowBytes
	ex.Mem = exec.NewMemBudget(full * 2)
	if got := r.spillEstimate(buildRows, probeRows); got != 0 {
		t.Errorf("build fits budget but estimate = %v", got)
	}
	ex.Mem = exec.NewMemBudget(full / 2)
	half := r.spillEstimate(buildRows, probeRows)
	ex.Mem = exec.NewMemBudget(full / 8)
	eighth := r.spillEstimate(buildRows, probeRows)
	if !(half > 0 && eighth > half) {
		t.Errorf("spill estimate not monotone: half=%v eighth=%v", half, eighth)
	}
	// Bounded by pricing the whole input through the spill factor.
	max := cluster.Default().SpillRowFactor * float64(buildRows+probeRows)
	if eighth >= max {
		t.Errorf("estimate %v should stay under the all-spilled bound %v", eighth, max)
	}
}

func TestShuffleEstimateIncludesSpillTerm(t *testing.T) {
	f := setup(t, false)
	refs := f.line.AllRefs(nil)
	base := f.runner.estimateShuffle(refRows(refs), refRows(refs))
	f.runner.Ex.Mem = exec.NewMemBudget(1024) // starved: nearly everything spills
	budgeted := f.runner.estimateShuffle(refRows(refs), refRows(refs))
	if budgeted <= base {
		t.Errorf("budgeted shuffle estimate %v not above unbudgeted %v", budgeted, base)
	}
}
