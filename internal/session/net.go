// The TCP transport path: when a Step carries a net.Cluster, Run hands
// the query to runNet, which executes it over real worker processes
// instead of the in-process simulated fabric. The coordinator neither
// adapts nor compiles: every worker adapts its own replica once per
// seq and compiles the identical plan, and the coordinator drains the
// root gather (under the spec's group-by, planner.Runner.Top) and
// merges what the workers report — one replica's adaptation record,
// the join report, the operator stats. Its store serves only to bind
// specs. When an attempt fails with a transport error the loop retries
// it: the cluster reassigns the dead worker's fragments to a surviving
// replica holder and the query still returns the correct result, which
// is the failover contract the test wall pins.
package session

import (
	"context"
	"fmt"

	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/tuple"
)

// runNet is Run's TCP attempt loop, filling res with what the
// successful attempt did (Run's frame does the accounting). Frames a
// fast worker ships before the drain starts park in the attempt's
// queue under credit.
func runNet(ctx context.Context, st Step, q Query, sink func(*exec.Batch) error, res *Result) error {
	if q.Spec == nil {
		return fmt.Errorf("session: %q: the TCP transport requires declarative specs (hand-built plans cannot be dispatched)", q.Label)
	}
	ex, cl := st.Runner.Ex, st.Net
	var out adbnet.Outcome
	n := 0
	// An attempt materializes its rows only when a sink wants them, and
	// the sink sees them only once the attempt has succeeded: streaming
	// straight into it would hand it rows from attempts that later fail
	// over. A failed attempt's rows and count are discarded.
	var rows []tuple.Tuple
	var keep func(*exec.Batch) error
	if sink != nil {
		keep = Collect(&rows)
	}
	for attemptN := 1; ; attemptN++ {
		at, err := cl.Begin(q.Spec.Spec, st.Seq, st.Runner.LinkWeights)
		if err != nil {
			return fmt.Errorf("session: dispatch %q: %w", q.Label, err)
		}
		top := st.Runner.Top(q.Spec, at.Root())
		at.Start(ctx)
		rows = nil
		n, err = exec.Drain(ctx, top.Root, keep)
		retry, ferr := at.Finish(err, ex.Meter)
		if err == nil && ferr == nil {
			out = at.Outcome(top.OpStats())
			break
		}
		if ferr == nil {
			ferr = err
		}
		if !retry || attemptN >= cl.MaxAttempts() {
			return fmt.Errorf("session: execute %q (attempt %d): %w", q.Label, attemptN, ferr)
		}
	}

	// The workers' migration I/O lands on this query's meter once, as
	// the simulated session's own adaptation does.
	ex.Meter.Merge(out.AdaptIO)
	// Measured link weights feed the workers' next compile.
	if w := cl.Weights(); w != nil {
		st.Runner.LinkWeights = w
	}
	res.RowCount, res.Adapt, res.Report, res.Ops = n, out.Adapt, out.Report, out.Ops
	if sink == nil {
		return nil
	}
	_, err := exec.Drain(nil, exec.NewSource(rows), sink)
	return err
}
