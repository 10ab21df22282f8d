package sample

import (
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func intRow(v int64) tuple.Tuple { return tuple.Tuple{value.NewInt(v)} }

func TestReservoirBounded(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := int64(0); i < 1000; i++ {
		r.Observe(intRow(i))
	}
	if len(r.Sample()) != 10 {
		t.Fatalf("sample size %d, want 10", len(r.Sample()))
	}
}

func TestReservoirSmallInput(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := int64(0); i < 4; i++ {
		r.Observe(intRow(i))
	}
	if len(r.Sample()) != 4 {
		t.Fatalf("sample size %d, want all 4", len(r.Sample()))
	}
}

func TestReservoirZeroK(t *testing.T) {
	r := NewReservoir(0, 1)
	r.Observe(intRow(1))
	if len(r.Sample()) != 1 {
		t.Fatalf("k<=0 should clamp to 1")
	}
}

func TestReservoirApproxUniform(t *testing.T) {
	// Each of 100 items should land in a k=50 sample about half the time.
	const trials = 400
	counts := make([]int, 100)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(50, int64(trial))
		for i := int64(0); i < 100; i++ {
			r.Observe(intRow(i))
		}
		for _, tp := range r.Sample() {
			counts[tp[0].Int64()]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if frac < 0.3 || frac > 0.7 {
			t.Errorf("item %d selected with frequency %.2f, want ≈0.5", i, frac)
		}
	}
}

func TestColumn(t *testing.T) {
	rows := []tuple.Tuple{intRow(3), intRow(1), {value.Value{}}, intRow(2)}
	vs := Column(rows, 0)
	if len(vs) != 3 {
		t.Fatalf("Column kept %d values, want 3 (nulls dropped)", len(vs))
	}
}
