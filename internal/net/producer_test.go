package net

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// TestTCPProducerMatchesSim wires the same exchanges — a shuffle and a
// broadcast of two fragments — plus a gather onto the simulated fabric
// and across a two-process TCP pair, and asserts that every output receives
// the same rows and that both meter the same local and remote rows and
// wire bytes: the pumps run the simulated exchange's producer.
func TestTCPProducerMatchesSim(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	rows := func(lo, n int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{value.NewInt(int64((lo + i) * 7 % 901)), value.NewString(fmt.Sprint("r", lo+i))}
		}
		return out
	}
	frag := [][]tuple.Tuple{rows(0, 3000), rows(3000, 2100)}
	// compile returns each exchange's outputs 0 and 1, then the gather.
	compile := func(f exec.Fabric) []exec.Operator {
		parts := func() []exec.Operator { return []exec.Operator{exec.NewSource(frag[0]), exec.NewSource(frag[1])} }
		var outs []exec.Operator
		for _, x := range []exec.Exchanger{
			f.Shuffle(parts(), 0, exec.ChargeShuffle),
			f.Broadcast(parts(), exec.ChargeIntermediate),
		} {
			outs = append(outs, x.Output(0), x.Output(1))
		}
		return append(outs, f.Gather(parts()))
	}
	drain := func(ops map[int]exec.Operator) map[int][]string {
		chs := map[int]chan collected{}
		for i, op := range ops {
			chs[i] = collectAsync(op)
		}
		got := map[int][]string{}
		for i, ch := range chs {
			c := <-ch
			if c.err != nil {
				t.Fatalf("output %d: %v", i, c.err)
			}
			for _, r := range c.rows {
				got[i] = append(got[i], fmt.Sprint(r))
			}
			slices.Sort(got[i])
		}
		return got
	}
	exch := func(c cluster.Counters) [4]float64 {
		return [4]float64{c.ExchLocalRows, c.ExchRemoteRows, c.ExchBytes, c.ExchFilteredRows}
	}

	ex := exec.New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ns := ex.EnableNodes(0)
	simOps := map[int]exec.Operator{}
	for i, op := range compile(ex.ExecFabric()) {
		simOps[i] = op
	}
	want := drain(simOps)
	ns.Flush()
	wantCnt := exch(ex.Meter.Snapshot())
	if wantCnt[0] == 0 || wantCnt[1] == 0 {
		t.Fatalf("the simulated fabric metered %v: no local or no remote rows to compare", wantCnt)
	}

	epA, epB, closePair := pairEndpoints(t, 0)
	defer closePair()
	const qid = 31
	fA, exA := shuffleEnd(t, epA, qid, 0)
	fB, exB := shuffleEnd(t, epB, qid, 0)
	// Proc p hosts fragment p's outputs; the coordinator (proc 0) hosts
	// the gather.
	tcpOps := map[int]exec.Operator{}
	for p, f := range []*netFabric{fA, fB} {
		for i, op := range compile(f) {
			if i%2 == p && i < 4 || i == 4 && p == 0 {
				tcpOps[i] = op
			}
		}
	}
	fA.Run(context.Background())
	fB.Run(context.Background())
	got := drain(tcpOps)
	for _, f := range []*netFabric{fA, fB} {
		if err := waitPumps(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := range simOps {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("output %d: tcp %d rows, sim %d (or different rows)", i, len(got[i]), len(want[i]))
		}
	}
	exA.Nodes().Flush()
	exB.Nodes().Flush()
	cnt := exA.Meter.Snapshot()
	cnt.Add(exB.Meter.Snapshot())
	if exch(cnt) != wantCnt {
		t.Fatalf("tcp metered local, remote rows, bytes, dropped rows %v; sim %v", exch(cnt), wantCnt)
	}
	epA.retire(qid, nil)
	epB.retire(qid, nil)
}
