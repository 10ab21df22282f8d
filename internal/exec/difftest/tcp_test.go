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
	registerNarrowDataset()
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
			if _, err := RunSpecCaseTCP(c, SpecDatasetName, nodes, nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpecTCPFilterOneWord runs spec cases over TCP with every join
// filter capped at one word, so most rows that cannot match still
// cross and must be dropped by the join, at 4 and 8 fragments, with and
// without a starved budget. In-process workers share the cap.
func TestSpecTCPFilterOneWord(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	defer exec.SetJoinFilterWordCap(exec.SetJoinFilterWordCap(1))
	filtered := 0.0
	for seed := int64(1); seed <= 10; seed++ {
		c := GenSpecCase(seed)
		for _, nodes := range []int{4, 8} {
			for _, budget := range []int64{0, 4096} {
				c.Budget = budget
				cnt, err := RunSpecCaseTCP(c, SpecDatasetName, nodes, nodes)
				if err != nil {
					t.Fatal(err)
				}
				filtered += cnt.ExchFilteredRows
			}
		}
	}
	if filtered == 0 {
		t.Fatal("no probe row was filtered: the band ran no filtered shuffle")
	}
}

// TestSpecTCPAssignment covers fragment assignment shapes off the CI
// fast path: more fragments than workers and more workers than
// fragments.
func TestSpecTCPAssignment(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	c := GenSpecCase(3)
	if _, err := RunSpecCaseTCP(c, SpecDatasetName, 8, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecCaseTCP(c, SpecDatasetName, 2, 5); err != nil {
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
				if _, err := RunSpecCaseTCP(c, SpecDatasetName, nodes, nodes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
