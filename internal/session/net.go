// The TCP transport path: when a Step carries a net.Cluster, Run hands
// the query to runNet, which executes it over real worker processes
// instead of the in-process simulated fabric. The runner's store is the
// coordinator's replica — adaptation and compilation run here exactly
// as in simulated distributed mode, and of the compiled plan only the
// root gather's receiving end runs here: every fragment below it runs
// in the worker hosting it; only the exchange transport changes. When an attempt fails with a transport error the
// loop retries it: the cluster reassigns the dead worker's fragments to
// a surviving replica holder and the query still returns the correct
// result, which is the failover contract the test wall pins.
package session

import (
	"context"
	"fmt"

	"adaptdb/internal/exec"
	"adaptdb/internal/planner"
	"adaptdb/internal/tuple"
)

// runNet is Run's TCP attempt loop, filling res with what the
// successful attempt did (Run's frame does the accounting). The first
// attempt is dispatched BEFORE the coordinator adapts: every worker
// replays the identical adaptation when the query message arrives, so
// dispatching first runs the replicas' migrations side by side instead
// of the workers' after the coordinator's. Frames a fast worker ships
// meanwhile park in the attempt's queues under credit.
func runNet(ctx context.Context, st Step, q Query, sink func(*exec.Batch) error, res *Result) error {
	if q.Spec == nil {
		return fmt.Errorf("session: %q: the TCP transport requires declarative specs (hand-built plans cannot be dispatched)", q.Label)
	}
	ex, cl := st.Runner.Ex, st.Net
	var comp *planner.Compiled
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
		if attemptN == 1 && st.Adapt != nil {
			// Every worker replica derives its votes from the same bound
			// spec by the rule Query.Uses applies to specs
			// (query.Bound.Uses), so the coordinator's match them exactly
			// and layouts never drift apart. Once per query: a failover
			// retry reuses Seq, and the workers skip re-adapting on it too.
			adapt, err := st.Adapt(q.Uses(), ex.Meter)
			if err != nil {
				at.Finish(err, ex.Meter) // the workers must abort, not wait for streams
				return fmt.Errorf("session: adapt %q: %w", q.Label, err)
			}
			res.Adapt = adapt
		}
		fb, err := at.Fabric(ex)
		if err != nil {
			at.Finish(err, ex.Meter)
			return fmt.Errorf("session: %q: %w", q.Label, err)
		}
		ex.SetFabric(fb)
		comp, err = q.Compile(st.Runner)
		ex.SetFabric(nil)
		if err != nil {
			at.Finish(err, ex.Meter)
			return fmt.Errorf("session: compile %q: %w", q.Label, err)
		}
		at.Start(ctx)
		rows = nil
		n, err = exec.Drain(ctx, comp.Root, keep)
		retry, ferr := at.Finish(err, ex.Meter)
		if err == nil && ferr == nil {
			break
		}
		if ferr == nil {
			ferr = err
		}
		if !retry || attemptN >= cl.MaxAttempts() {
			return fmt.Errorf("session: execute %q (attempt %d): %w", q.Label, attemptN, ferr)
		}
	}

	// Measured link weights feed the next compile's shuffle pricing.
	if w := cl.Weights(); w != nil {
		st.Runner.LinkWeights = w
	}
	res.RowCount, res.Report, res.Ops = n, comp.Report, comp.OpStats()
	if sink == nil {
		return nil
	}
	_, err := exec.Drain(nil, exec.NewSource(rows), sink)
	return err
}
