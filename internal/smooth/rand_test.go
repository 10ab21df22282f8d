package smooth

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/workload"
)

// replay runs the same mixed-attribute step sequence against a fresh
// table with the given manager and returns the per-step results.
func replay(t *testing.T, m *Manager, storeSeed int64) []StepResult {
	t.Helper()
	store := dfs.NewStore(4, 2, storeSeed)
	tbl, err := core.Load(store, "lineitem", sch, genRows(2048, 1), core.LoadOptions{
		RowsPerBlock: 128, Seed: 1, JoinAttr: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []StepResult
	var meter cluster.Meter
	for i := 0; i < 8; i++ {
		q := workload.Query{JoinAttr: []int{1, 1, 0, 1, 1, 1, 0, 1}[i]}
		m.Window.Add(q)
		res, err := m.Step(tbl, q, &meter)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestSeededRandReplaysIdentically(t *testing.T) {
	a := replay(t, NewWithRand(workload.NewWindow(10), rand.New(rand.NewSource(42))), 1)
	b := replay(t, NewWithRand(workload.NewWindow(10), rand.New(rand.NewSource(42))), 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	c := replay(t, NewWithRand(workload.NewWindow(10), rand.New(rand.NewSource(43))), 1)
	if reflect.DeepEqual(a, c) {
		// Different seeds picking identical buckets throughout is
		// astronomically unlikely at 16 buckets/tree over 8 steps.
		t.Fatalf("different seeds produced identical migrations; rng unused?")
	}
}

func TestZeroValueManagerDoesNotPanic(t *testing.T) {
	store := dfs.NewStore(4, 2, 9)
	tbl, err := core.Load(store, "t", sch, genRows(512, 3), core.LoadOptions{RowsPerBlock: 64, Seed: 2, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	m := &Manager{Window: workload.NewWindow(5), FMin: 1}
	q := workload.Query{JoinAttr: 1}
	m.Window.Add(q)
	var meter cluster.Meter
	if _, err := m.Step(tbl, q, &meter); err != nil {
		t.Fatal(err)
	}
}
