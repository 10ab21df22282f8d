package net

import (
	"errors"
	"strings"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
)

// TestLockstepMismatchNamesSeqAndWorkers feeds the coordinator's
// lockstep check reports from three workers: identical ones pass, and
// a record that differs in its step report, its migration I/O, its seq
// or its join strategies fails with a *LockstepError naming the seq and
// the two workers compared.
func TestLockstepMismatchNamesSeqAndWorkers(t *testing.T) {
	const seq = 7
	done := func() *qdoneMsg {
		return &qdoneMsg{
			Adapt: adaptRecord{
				Seq:  seq,
				Step: optimizer.StepReport{MovedRows: 512, CreatedTrees: 1},
				IO:   cluster.Counters{RepartRows: 512, ScanLocal: 512},
			},
			Report: &planner.Report{Joins: []planner.JoinReport{{Strategy: planner.StratHyper}, {Strategy: planner.StratSemiShuffle}}},
		}
	}
	reports := func(odd *qdoneMsg) map[int]*qdoneMsg {
		return map[int]*qdoneMsg{1: done(), 2: odd, 3: done()}
	}
	if err := checkLockstep(seq, reports(done())); err != nil {
		t.Fatalf("identical reports: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(*qdoneMsg)
		want string
	}{
		{"step", func(d *qdoneMsg) { d.Adapt.Step.MovedRows = 256 }, "adaptation"},
		{"migration I/O", func(d *qdoneMsg) { d.Adapt.IO.RepartRows = 256 }, "adaptation"},
		{"stale record", func(d *qdoneMsg) { d.Adapt.Seq = seq - 1 }, "seq 6"},
		{"strategies", func(d *qdoneMsg) { d.Report.Joins[1].Strategy = planner.StratShuffle }, "join strategies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			odd := done()
			tc.edit(odd)
			err := checkLockstep(seq, reports(odd))
			var le *LockstepError
			if !errors.As(err, &le) {
				t.Fatalf("got %v, want a *LockstepError", err)
			}
			if le.Seq != seq || le.Workers != [2]int{1, 2} {
				t.Fatalf("error names seq %d and workers %v, want seq %d and workers [1 2]", le.Seq, le.Workers, seq)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "seq 7") {
				t.Fatalf("error %q does not say %q and seq 7", err, tc.want)
			}
			if IsNetError(err) {
				t.Fatal("a divergence must not be retried as a transport failure")
			}
		})
	}
}
