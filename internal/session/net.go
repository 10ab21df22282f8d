// The TCP transport path: a session whose Config carries a net.Cluster
// executes its stream over real worker processes instead of the
// in-process simulated fabric. The session's own store is the
// coordinator's replica — adaptation, compilation and the coordinator-
// side plan fragments (gathers, broadcast sources, hyper-join globals)
// run here exactly as in simulated distributed mode; only the exchange
// transport changes. When an attempt fails with a transport error the
// session retries it: the cluster reassigns the dead worker's
// fragments to a surviving replica holder and the query still returns
// the correct result, which is the failover contract the test wall
// pins.
package session

import (
	"context"
	"fmt"
	"time"

	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/planner"
	"adaptdb/internal/tuple"
)

// runNet executes one query of the stream over the TCP fabric, with
// replica failover. Mirrors run()'s accounting contract: adapt before
// compiling (migration I/O on this query's meter, once — workers adapt
// with throwaway meters), counters captured and reset whatever happens.
// The first attempt is dispatched BEFORE the coordinator adapts: every
// worker replays the identical adaptation when the query message
// arrives, so dispatching first runs the replicas' migrations side by
// side instead of the workers' after the coordinator's. Frames a fast
// worker ships meanwhile park in the attempt's queues under credit.
func (s *Session) runNet(q Query, collect bool, sink func(*exec.Batch) error) (*Result, error) {
	res := &Result{Seq: s.seq, Label: q.Label}
	seq := s.seq
	s.seq++
	start := time.Now()
	defer func() {
		if ns := s.ex.Nodes(); ns != nil {
			ns.Flush()
		}
		res.Wall = time.Since(start)
		res.Counters = s.meter.Reset()
		res.SimSeconds = res.Counters.SimSeconds(s.model)
	}()

	if q.Spec == nil {
		return res, fmt.Errorf("session: %q: the TCP transport requires declarative specs (hand-built plans cannot be dispatched)", q.Label)
	}

	ctx := s.ex.Ctx()
	if ctx == nil {
		ctx = context.Background()
	}

	var comp *planner.Compiled
	var rows []tuple.Tuple
	count := 0
	// With no sink and no collect, no caller wants rows: an attempt
	// counts its batches instead of materializing them. A failed
	// attempt's count is discarded like its rows would be.
	countOnly := !collect && sink == nil
	adapted := false
	for attemptN := 1; ; attemptN++ {
		at, err := s.net.Begin(q.Spec.Spec, seq, s.runner.LinkWeights)
		if err != nil {
			if adbnet.IsNetError(err) && attemptN < s.net.MaxAttempts() && s.net.LiveWorkers() > 0 {
				continue // a lost dispatch fails over like a lost stream
			}
			return res, fmt.Errorf("session: dispatch %q: %w", q.Label, err)
		}
		if !adapted {
			adapted = true
			// Adaptation votes come from the spec's join graph, never from
			// a hand-set Uses list: every worker replica derives its votes
			// from the same bound spec, and the coordinator must match them
			// exactly or layouts drift apart. Once per query: a failover
			// retry reuses seq, and the workers skip re-adapting on it too.
			adapt, err := s.opt.OnQuery(q.Spec.Uses(), s.meter)
			if err != nil {
				at.Finish(err, s.meter) // the workers must abort, not wait for streams
				return res, fmt.Errorf("session: adapt %q: %w", q.Label, err)
			}
			res.Adapt = adapt
		}
		fb, err := at.Fabric(s.ex)
		if err != nil {
			at.Finish(err, s.meter)
			return res, fmt.Errorf("session: %q: %w", q.Label, err)
		}
		s.ex.SetFabric(fb)
		comp, err = s.runner.CompileSpec(q.Spec)
		s.ex.SetFabric(nil)
		if err != nil {
			at.Finish(err, s.meter)
			return res, fmt.Errorf("session: compile %q: %w", q.Label, err)
		}
		at.Start(ctx)

		if countOnly {
			count, err = exec.Count(comp.Root)
		} else {
			rows, err = exec.Collect(comp.Root)
			count = len(rows)
		}
		execErr := err
		retry, ferr := at.Finish(execErr, s.meter)
		if execErr == nil && ferr == nil {
			break
		}
		if ferr == nil {
			ferr = execErr
		}
		if retry && attemptN < s.net.MaxAttempts() {
			continue
		}
		return res, fmt.Errorf("session: execute %q (attempt %d): %w", q.Label, attemptN, ferr)
	}

	// Measured link weights feed the next compile's shuffle pricing.
	if w := s.net.Weights(); w != nil {
		s.runner.LinkWeights = w
	}

	res.Report = comp.Report
	res.Ops = comp.OpStats()
	res.RowCount = count
	if collect {
		res.Rows = rows
	} else if sink != nil {
		// Replay the materialized result through the sink in batches.
		// (Streaming straight into the sink would hand it rows from
		// attempts that later fail over; materializing first keeps the
		// sink exactly-once.)
		if _, err := exec.Drain(nil, exec.NewSource(rows), sink); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Net exposes the session's cluster handle (nil without TCP transport).
func (s *Session) Net() *adbnet.Cluster { return s.net }
