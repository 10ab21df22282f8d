// White-box tests for the dynamic parts of the hybrid hash join: radix
// fan-out selection, second-pass role reversal, Bloom-filtered probe
// spills, and scored victim selection.
package exec

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func keyedRows(n int, key func(i int) int64) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(key(i)), value.NewInt(int64(i))}
	}
	return rows
}

// runDynJoin joins l ⋈ r on column 0 and hands back the concrete join
// op so tests can read its spill counters.
func runDynJoin(t *testing.T, l, r []tuple.Tuple, budget int64, opts JoinOptions) ([]tuple.Tuple, *hashJoinOp) {
	t.Helper()
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(budget)
	ex.SpillDir = t.TempDir()
	op := ex.JoinOp(NewSource(l), 0, NewSource(r), 0, opts)
	hj := op.(*hashJoinOp)
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if used := ex.Mem.Used(); used != 0 {
		t.Fatalf("budget still holds %d bytes after drain", used)
	}
	return got, hj
}

func TestPickRadixBits(t *testing.T) {
	for _, tc := range []struct {
		estRows int
		limit   int64
		want    int
	}{
		{0, 0, joinRadixBits},    // no estimate: fixed default
		{0, 1024, joinRadixBits}, // budgeted but unknown: same
		{100, 1 << 30, 2},        // tiny build, huge budget: min fan-out
		{16_384, 0, 2},           // unbudgeted small build: min fan-out
		{1 << 20, 0, 6},          // unbudgeted: ~16k rows per partition
		{10_000, 4096, 8},        // starved budget: clamp at max
		{1 << 30, 1, 8},          // absurd ratio still clamps
	} {
		if got := pickRadixBits(tc.estRows, tc.limit); got != tc.want {
			t.Errorf("pickRadixBits(%d, %d) = %d, want %d", tc.estRows, tc.limit, got, tc.want)
		}
	}
}

// TestJoinFanOutFollowsEstimate checks the estimate actually reaches
// the constructed operator: partition count and shift agree with
// pickRadixBits.
func TestJoinFanOutFollowsEstimate(t *testing.T) {
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(4096)
	hj := ex.JoinOp(NewSource(nil), 0, NewSource(nil), 0, JoinOptions{BuildRowsEst: 10_000}).(*hashJoinOp)
	if hj.nParts != 256 || hj.radixBits != 8 || hj.radixShift != 56 {
		t.Fatalf("estimated join fan-out = %d bits / %d parts / shift %d", hj.radixBits, hj.nParts, hj.radixShift)
	}
	hj = ex.JoinOp(NewSource(nil), 0, NewSource(nil), 0, JoinOptions{}).(*hashJoinOp)
	if hj.nParts != joinPartitions {
		t.Fatalf("estimate-free join fan-out = %d parts, want default %d", hj.nParts, joinPartitions)
	}
}

// TestSpillRoleReversal starves a build≫probe join so every partition
// spills with a large build run and a tiny probe run; the second pass
// must load the probe side instead (role reversal) and still produce
// the exact join.
func TestSpillRoleReversal(t *testing.T) {
	build := keyedRows(4000, func(i int) int64 { return int64(i % 500) })
	probe := keyedRows(60, func(i int) int64 { return int64(i) })
	got, hj := runDynJoin(t, build, probe, 2048, JoinOptions{})
	rowsEqualSorted(t, got, NestedLoopJoin(build, probe, 0, 0))
	if hj.spillReversals() == 0 {
		t.Fatal("build≫probe second pass never reversed roles")
	}
}

// TestSpillNoReversalWhenBuildSmaller is the control: with the build
// side already the smaller one, the second pass must keep its
// orientation.
func TestSpillNoReversalWhenBuildSmaller(t *testing.T) {
	build := keyedRows(60, func(i int) int64 { return int64(i) })
	probe := keyedRows(4000, func(i int) int64 { return int64(i % 500) })
	got, hj := runDynJoin(t, build, probe, 1024, JoinOptions{})
	rowsEqualSorted(t, got, NestedLoopJoin(build, probe, 0, 0))
	if n := hj.spillReversals(); n != 0 {
		t.Fatalf("probe≫build second pass reversed roles %d times", n)
	}
}

// TestSpillBloomSkipDisjointKeys probes a spilled build with entirely
// disjoint keys: the join's filter must drop every probe-side spill
// write but its false positives. Each probe row routed to a demoted
// partition is skipped and metered as SpillSkippedRows unless the
// filter passes it, and the only run rows written are the build rows
// of demoted partitions and those false positives. The 1,000 build
// keys size the filter at 256 words (16.4 bits a key), where these
// 2,000 probe keys give exactly disjointFalsePos false positives; a
// filter whose false-positive rate grew writes more.
func TestSpillBloomSkipDisjointKeys(t *testing.T) {
	const disjointFalsePos = 13
	build := keyedRows(1000, func(i int) int64 { return int64(i) })
	probe := keyedRows(2000, func(i int) int64 { return int64(10_000 + i) })

	got, hj := runDynJoin(t, build, probe, 4096, JoinOptions{})
	if len(got) != 0 {
		t.Fatalf("disjoint join produced %d rows", len(got))
	}
	if n := len(hj.filter.words); n != 256 {
		t.Fatalf("the filter of 1,000 build keys has %d words, want 256", n)
	}
	demotedRows := func(rows []tuple.Tuple) int64 {
		n := int64(0)
		for _, r := range rows {
			if hj.spill.isSpilled(int(r[0].Hash64() >> hj.radixShift)) {
				n++
			}
		}
		return n
	}
	routed := demotedRows(probe)
	if routed == 0 {
		t.Fatal("no probe row reached a demoted partition")
	}
	written := hj.spill.spilledRows.Load() - demotedRows(build)
	if written < 0 || written > disjointFalsePos {
		t.Fatalf("%d disjoint probe rows written to runs, want at most the filter's %d false positives", written, disjointFalsePos)
	}
	if skipped := hj.SpillSkippedRows(); skipped != routed-written {
		t.Fatalf("the filter skipped %d probe rows, %d reached demoted partitions and %d were written", skipped, routed, written)
	}
	if c := hj.e.Meter.Snapshot().SpillSkippedRows; c != float64(routed-written) {
		t.Fatalf("meter saw %.0f skipped rows, want %d", c, routed-written)
	}
}

// TestVictimScorePrefersDistinct exercises the scoring function
// directly: a duplicate-heavy partition must score below a distinct-key
// partition even when it holds more bytes, and empty partitions score
// zero.
func TestVictimScorePrefersDistinct(t *testing.T) {
	sp := newJoinSpill(&hashJoinOp{nParts: 4})
	for i := 0; i < 200; i++ {
		sp.noteBuildRow(0, 0, 60) // one hot key: 12000 bytes, 1 sample bit
	}
	for i := 0; i < 50; i++ {
		sp.noteBuildRow(1, uint64(i), 160) // distinct keys: 8000 bytes
	}
	dup, distinct := sp.victimScore(0), sp.victimScore(1)
	if dup <= 0 {
		t.Fatal("non-empty partition scored zero: demotion could stall")
	}
	if distinct <= dup {
		t.Fatalf("distinct partition scored %.0f ≤ duplicate-heavy %.0f despite fewer bytes", distinct, dup)
	}
	if sp.victimScore(2) != 0 {
		t.Fatal("empty partition scored non-zero")
	}
}

// TestPressureSpillsDistinctKeepsDuplicates drives pressure() itself:
// with both partitions over budget together, the distinct-key
// partition must be demoted while the larger duplicate-heavy one stays
// in memory.
func TestPressureSpillsDistinctKeepsDuplicates(t *testing.T) {
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(13_000)
	sp := newJoinSpill(&hashJoinOp{e: ex, nParts: 4})
	for i := 0; i < 200; i++ {
		sp.noteBuildRow(0, 0, 60) // duplicates: 12000 bytes
	}
	for i := 0; i < 50; i++ {
		sp.noteBuildRow(1, uint64(i), 160) // distinct: 8000 bytes
	}
	ex.Mem.Charge(20_000)
	defer ex.Mem.Release(20_000)
	sp.pressure()
	if !sp.isSpilled(1) {
		t.Fatal("distinct-key partition was not demoted")
	}
	if sp.isSpilled(0) {
		t.Fatal("duplicate-heavy partition was demoted despite lower score")
	}
}
