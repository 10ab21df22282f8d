package difftest

import (
	"fmt"
	"testing"

	"adaptdb/internal/exec"
)

// TestMixedBlocks drives NULL-, NaN- and mixed-kind-bearing base tables
// through scans, hyper-joins and mid-stream bucket migration on both
// fabrics at every budget tier (unlimited, a fraction of the data,
// starved), against the boxed oracle and the leak wall. The band must
// really migrate (smooth moves, full rewrites and Amoeba swaps) and
// really hyper-join, or it proves nothing about the block layer.
func TestMixedBlocks(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	var total MixedStats
	for seed := int64(1); seed <= 6; seed++ {
		base := GenMixedCase(seed)
		for tier, budget := range []int64{0, base.rowBytes() / 6, 2048} {
			for _, tcp := range []bool{false, true} {
				c := base
				c.Budget = budget
				nodes := 1 + 3*int((seed+int64(tier))%2) // 1 or 4
				t.Run(fmt.Sprintf("seed=%d/budget=%d/tcp=%v/nodes=%d", seed, budget, tcp, nodes), func(t *testing.T) {
					dir := t.TempDir()
					t.Setenv("TMPDIR", dir) // TCP workers spill under the OS temp dir
					st, err := RunMixedCase(c, nodes, tcp, dir)
					if err != nil {
						t.Fatal(err)
					}
					total.add(st)
				})
			}
		}
	}
	t.Logf("band exercised %+v", total)
	if total.MovedRows == 0 || total.FullRepartitions == 0 || total.AmoebaTransforms == 0 ||
		total.HyperJoins == 0 || total.ResultRows == 0 {
		t.Fatalf("band is vacuous: %+v", total)
	}
}
