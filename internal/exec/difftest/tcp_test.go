package difftest

import (
	"fmt"
	"os"
	"testing"

	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
)

// TestMain wires the worker re-exec path: a spawned worker process
// re-enters this test binary, registers the spec dataset, and never
// returns from MaybeWorker.
func TestMain(m *testing.M) {
	RegisterSpecDataset()
	RegisterMixedDataset()
	adbnet.MaybeWorker()
	os.Exit(m.Run())
}

// TestSpecTCPQuick is the CI subset of the TCP differential: a fixed
// seed band through 1- and 4-fragment clusters, every case diffed
// against the reference evaluation and a simulated-NodeSet session.
func TestSpecTCPQuick(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	for seed := int64(1); seed <= 10; seed++ {
		c := GenSpecCase(seed)
		for _, nodes := range []int{1, 4} {
			if err := RunSpecCaseTCP(c, SpecDatasetName, nodes, nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpecTCPAssignment covers fragment assignment shapes off the CI
// fast path: more fragments than workers and more workers than
// fragments.
func TestSpecTCPAssignment(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	c := GenSpecCase(3)
	if err := RunSpecCaseTCP(c, SpecDatasetName, 8, 3); err != nil {
		t.Fatal(err)
	}
	if err := RunSpecCaseTCP(c, SpecDatasetName, 2, 5); err != nil {
		t.Fatal(err)
	}
}

// TestSpecTCPFull is the nightly matrix: a wide seed band × {1,4,8}
// fragments. Run with -long.
func TestSpecTCPFull(t *testing.T) {
	if !*long {
		t.Skip("nightly matrix; run with -long")
	}
	defer exec.VerifyNoLeaks(t)
	for seed := int64(1); seed <= 40; seed++ {
		c := GenSpecCase(seed)
		for _, nodes := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("seed=%d/nodes=%d", seed, nodes), func(t *testing.T) {
				if err := RunSpecCaseTCP(c, SpecDatasetName, nodes, nodes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
