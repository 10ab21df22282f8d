package exec

import (
	"math"
	"math/rand"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// TestBloomZeroFalseNegatives is the correctness contract the spill
// skip rests on: every inserted hash must answer positive. A single
// false negative would silently drop join rows.
func TestBloomZeroFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 1024, 50_000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		bf := newKeyFilter(keys)
		for i, h := range keys {
			if !bf.mayPass(h) {
				t.Fatalf("n=%d: false negative on key %d (hash %#x)", n, i, h)
			}
		}
	}
}

// TestBloomFPRNearTarget measures the false-positive rate against
// disjoint query keys at both ends of the power-of-two sizing — 16.4
// bits per key at 1,000 keys, 32 at 1,025 — and between, at 20,000
// keys (26.2). Each must stay within 2x the rate bloomBitsPerKey
// documents for its bits per key.
func TestBloomFPRNearTarget(t *testing.T) {
	for _, tc := range []struct {
		n, words int
		maxFPR   float64
	}{
		{1_000, 256, 2 * 0.004},
		{1_025, 512, 2 * 0.0004},
		{20_000, 8192, 2 * 0.0008},
	} {
		rng := rand.New(rand.NewSource(11))
		const probes = 200_000
		member := make(map[uint64]bool, tc.n)
		keys := make([]uint64, tc.n)
		for i := range keys {
			keys[i] = rng.Uint64()
			member[keys[i]] = true
		}
		bf := newKeyFilter(keys)
		if len(bf.words) != tc.words {
			t.Fatalf("n=%d: %d words, want %d", tc.n, len(bf.words), tc.words)
		}
		fp := 0
		for i := 0; i < probes; i++ {
			h := rng.Uint64()
			if member[h] {
				continue
			}
			if bf.mayPass(h) {
				fp++
			}
		}
		if fpr := float64(fp) / float64(probes); fpr > tc.maxFPR {
			t.Fatalf("n=%d: measured FPR %.5f exceeds %.5f", tc.n, fpr, tc.maxFPR)
		}
		if fill := bf.fillRatio(); fill > 0.55 {
			t.Fatalf("n=%d: fill ratio %.2f: filter undersized for its keys", tc.n, fill)
		}
	}
}

// TestBloomHash64FloatConsistency pins the hash identities the filter
// depends on: +0.0 and -0.0 are Compare-equal, so they must hash
// identically (a build-side +0.0 must make a probe-side -0.0 pass the
// filter), and likewise every NaN bit pattern.
func TestBloomHash64FloatConsistency(t *testing.T) {
	posZero := value.NewFloat(0)
	negZero := value.NewFloat(math.Copysign(0, -1))
	if posZero.Hash64() != negZero.Hash64() {
		t.Fatalf("+0.0 hash %#x != -0.0 hash %#x", posZero.Hash64(), negZero.Hash64())
	}
	nanA := value.NewFloat(math.NaN())
	nanB := value.NewFloat(math.Float64frombits(0x7ff8000000000001)) // distinct NaN payload
	if nanA.Hash64() != nanB.Hash64() {
		t.Fatalf("NaN hashes differ: %#x vs %#x", nanA.Hash64(), nanB.Hash64())
	}
	bf := newKeyFilter([]uint64{posZero.Hash64()})
	if !bf.mayPass(negZero.Hash64()) {
		t.Fatal("filter holding +0.0 rejected -0.0")
	}
}

// TestBloomNullKeysNeverInserted runs a real budgeted join whose build
// side is half NULL keys, forces every partition to spill, and asserts
// the join's filter does not contain the NULL hash: NULL keys are
// dropped before hashing, so they must never reach the filter (or the
// run files behind it). A deterministic seed makes the false-positive
// risk of the assertion a fixed, verified-passing outcome.
func TestBloomNullKeysNeverInserted(t *testing.T) {
	build := make([]tuple.Tuple, 2000)
	for i := range build {
		key := value.Value{}
		if i%2 == 0 {
			key = value.NewInt(int64(i))
		}
		build[i] = tuple.Tuple{key, value.NewInt(int64(i))}
	}
	probe := []tuple.Tuple{{value.Value{}, value.NewInt(1)}, {value.NewInt(2), value.NewInt(2)}}

	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(256) // starved: everything demotes
	ex.SpillDir = t.TempDir()
	op := ex.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{})
	hj := op.(*hashJoinOp)
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(build, probe, 0, 0))

	if !hj.hasSpilled {
		t.Fatal("starved join demoted no partitions; test exercised nothing")
	}
	if hj.filter.mayPass(value.Value{}.Hash64()) {
		t.Error("the join's filter contains the NULL key hash")
	}
}
