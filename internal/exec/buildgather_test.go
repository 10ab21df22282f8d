// White-box tests for the hash-join build's batch routing: rows queue
// per partition and land with one gather per batch, buffers grow with
// what arrives rather than with the planner's estimate, and budgeted
// builds still demote, evict and spill exactly as the per-row rule does.
package exec

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// buildAlloc reports the bytes one budget-free join over a columnar
// build of rows (and an empty probe) allocates from Open to drain. Two
// collections empty the recycling pools (internal/recycle) first, so
// the count is this join's own, not a function of what earlier joins
// left behind.
func buildAlloc(t *testing.T, rows []tuple.Tuple, est int) uint64 {
	t.Helper()
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ex.Workers = 2
	op := ex.JoinOp(NewSource(rows), 0, NewSource(nil), 0, JoinOptions{BuildRowsEst: est})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Count(op); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJoinBuildAllocIgnoresEstimate pins that an over-estimate costs no
// allocation in proportion to its error: with BuildRowsEst at 10× the
// true build rows the join allocates at most 1.5× what it does with an
// exact estimate (only the radix fan-out may differ).
func TestJoinBuildAllocIgnoresEstimate(t *testing.T) {
	if recycle.Race {
		t.Skip("sync.Pool sheds Puts under -race; allocation totals are noise")
	}
	rows := keyedRows(50_000, func(i int) int64 { return int64(i) })
	buildAlloc(t, rows, len(rows)) // warm the batch pools
	exact := buildAlloc(t, rows, len(rows))
	over := buildAlloc(t, rows, 10*len(rows))
	t.Logf("exact estimate: %d KB, 10× estimate: %d KB", exact>>10, over>>10)
	if float64(over) > 1.5*float64(exact) {
		t.Fatalf("10× build estimate allocated %d bytes, %.1f× the exact estimate's %d",
			over, float64(over)/float64(exact), exact)
	}
}

// perRowBuild replays the per-row build rule over rows with one worker:
// every non-NULL row in input order either joins its partition's
// resident set (charging the budget, demoting on pressure) or, once its
// partition is demoted, evicts the resident set and spills. A spilled
// row's kept key hash charges 8 bytes: an evicted row's when it is
// evicted, a directly spilled row's when its batch ends. It returns
// each partition's resident and spilled rows as input indices, the
// demoted set, and how many evictions carried rows of the batch being
// routed — demotions that fired mid-batch.
func perRowBuild(tmpl *hashJoinOp, rows []tuple.Tuple, budget int64) (res, spilled [][]int, demoted []bool, midBatch int) {
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ex.Mem = NewMemBudget(budget)
	j := &hashJoinOp{e: ex, opts: tmpl.opts, radixBits: tmpl.radixBits, radixShift: tmpl.radixShift, nParts: tmpl.nParts}
	n := j.nParts
	res, spilled = make([][]int, n), make([][]int, n)
	held := make([]int64, n)
	var sp *joinSpill
	if ex.Mem != nil {
		sp = newJoinSpill(j)
	}
	evict := func(p int) {
		sp.charge(int64(8 * len(res[p])))
		spilled[p] = append(spilled[p], res[p]...)
		res[p] = nil
		sp.partBytes[p].Add(-held[p])
		sp.release(held[p])
		held[p] = 0
	}
	direct := 0 // rows of the current batch spilled directly
	for i, r := range rows {
		if i%DefaultBatchSize == 0 && direct > 0 {
			sp.charge(int64(8 * direct))
			direct = 0
		}
		if r[0].IsNull() {
			continue
		}
		h := r[0].Hash64()
		p := int(h >> j.radixShift)
		if sp != nil && sp.isSpilled(p) {
			if k := len(res[p]); k > 0 {
				if res[p][k-1]/DefaultBatchSize == i/DefaultBatchSize {
					midBatch++
				}
				evict(p)
			}
			spilled[p] = append(spilled[p], i)
			direct++
			continue
		}
		res[p] = append(res[p], i)
		if sp != nil {
			nb := int64(r.MemBytes())
			held[p] += nb
			sp.noteBuildRow(p, h, nb)
			if sp.charge(nb) {
				sp.pressure()
			}
		}
	}
	demoted = make([]bool, n)
	for p := range demoted {
		if sp != nil && sp.isSpilled(p) {
			demoted[p] = true
			evict(p)
		}
	}
	if sp != nil {
		sp.cleanup()
	}
	return res, spilled, demoted, midBatch
}

// sameRows reports whether got holds exactly rows[want...], in order.
func sameRows(got []tuple.Tuple, rows []tuple.Tuple, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for k, i := range want {
		if len(got[k]) != len(rows[i]) {
			return false
		}
		for c := range got[k] {
			if !value.Equal(got[k][c], rows[i][c]) { // built rows hold no NULL
				return false
			}
		}
	}
	return true
}

// TestBuildGatherMatchesPerRowRule drives the batch-routed build over
// random fan-outs, key spreads and budgets — tight enough that
// demotions fire mid-batch — and checks it against perRowBuild: the
// same partitions demoted, the sealed store holding each resident
// partition's rows in input order, each demoted partition's build runs
// holding exactly the rows the per-row rule spills, in input order, and
// every spilled key hash in the join's filter.
func TestBuildGatherMatchesPerRowRule(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	midBatch, spilledCases := 0, 0
	for c := 0; c < 40; c++ {
		n := 500 + rng.Intn(6000)
		keys := 1 + rng.Intn(n)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			k := value.NewInt(int64(rng.Intn(keys)))
			if rng.Intn(40) == 0 {
				k = value.Value{} // NULL keys never build
			}
			rows[i] = tuple.Tuple{k, value.NewInt(int64(i)), value.NewString(strings.Repeat("s", rng.Intn(32)))}
		}
		est := rng.Intn(4 * n) // 0: no estimate, default fan-out
		var budget int64
		if rng.Intn(5) > 0 {
			budget = rowsBytes(rows) * int64(1+rng.Intn(9)) / 10
		}

		ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
		ex.Workers = 1 // one worker: the per-row sequence is deterministic
		ex.Mem = NewMemBudget(budget)
		ex.SpillDir = t.TempDir()
		j := ex.JoinOp(NewSource(rows), 0, NewSource(nil), 0, JoinOptions{BuildRowsEst: est}).(*hashJoinOp)
		if ex.Mem != nil {
			j.spill = newJoinSpill(j)
		}
		if err := j.build.Open(); err != nil {
			t.Fatal(err)
		}
		if err := j.buildTables(); err != nil {
			t.Fatalf("case %d: build: %v", c, err)
		}

		res, spilled, demoted, mid := perRowBuild(j, rows, budget)
		midBatch += mid
		for p := 0; p < j.nParts; p++ {
			gotDemoted := j.spill != nil && j.spill.isSpilled(p)
			if gotDemoted != demoted[p] {
				t.Fatalf("case %d (n=%d, %d parts, budget %d): partition %d demoted=%v, per-row rule says %v",
					c, n, j.nParts, budget, p, gotDemoted, demoted[p])
			}
			var sealed []tuple.Tuple
			for g, h := range j.cbuild.hashes {
				if int(h>>j.radixShift) == p {
					sealed = append(sealed, j.cbuild.store.RowTo(nil, g))
				}
			}
			if !sameRows(sealed, rows, res[p]) {
				t.Fatalf("case %d: partition %d sealed %d rows, want the %d resident rows in input order",
					c, p, len(sealed), len(res[p]))
			}
			if !demoted[p] {
				continue
			}
			spilledCases++
			got := runRows(t, j.spill.fs(), j.spill.buildRuns[p])
			if !sameRows(got, rows, spilled[p]) {
				t.Fatalf("case %d: partition %d spilled %d rows, the per-row rule spills %d (or order differs)",
					c, p, len(got), len(spilled[p]))
			}
			for _, i := range spilled[p] {
				if !j.filter.mayPass(rows[i][0].Hash64()) {
					t.Fatalf("case %d: the join's filter misses row %d, spilled from partition %d", c, i, p)
				}
			}
		}
		if j.spill != nil {
			for p := range j.spill.buildRuns {
				releaseRuns(j.spill.fs(), j.spill.buildRuns[p])
			}
			j.spill.cleanup()
		}
		j.build.Close()
	}
	if spilledCases == 0 || midBatch == 0 {
		t.Fatalf("cases never exercised the spill path (%d demoted partitions, %d mid-batch evictions)", spilledCases, midBatch)
	}
	t.Logf("%d demoted partitions checked, %d evictions carried rows of the batch being routed", spilledCases, midBatch)
}
