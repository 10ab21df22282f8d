// The TCP leg of the spec differential: the same generated query
// graphs RunSpecCase proves over the in-process surfaces, executed
// over a real multi-process-style cluster (coordinator session + TCP
// worker endpoints), and diffed bit-for-bit against both the
// centralized reference evaluation and a simulated-NodeSet session.
// Spec cases are pure functions of their seed, which is exactly what
// the cluster's deterministic-replica contract needs: the dataset
// builder re-generates and re-loads the case in every worker process
// from (seed, nodes) alone.
package difftest

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
)

// SpecDatasetName is the registered builder for GenSpecCase replicas.
const SpecDatasetName = "difftest-spec"

// SpecDatasetParams serializes a spec-case replica recipe.
type SpecDatasetParams struct {
	Seed  int64
	Nodes int
}

// RegisterSpecDataset installs the spec-case dataset builder; test
// mains must call it before adbnet.MaybeWorker so re-exec'd worker
// processes can rebuild their replicas.
func RegisterSpecDataset() {
	adbnet.RegisterDataset(SpecDatasetName, func(raw json.RawMessage) (*dfs.Store, query.Catalog, error) {
		var p SpecDatasetParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, nil, fmt.Errorf("difftest: decode spec params: %w", err)
		}
		return loadSpecTables(GenSpecCase(p.Seed), p.Nodes)
	})
}

// RunSpecCaseTCP runs one case's declarative query through a session
// dispatching to TCP workers and diffs the rows against the reference
// evaluation and against a simulated-NodeSet session over an identical
// store. dataset names the builder the workers rebuild the case from —
// SpecDatasetName for generated cases, or any custom registration that
// reproduces c exactly (the coordinator replica here is always built
// from c itself). It returns the TCP query's counters.
func RunSpecCaseTCP(c SpecCase, dataset string, nodes, workers int) (cluster.Counters, error) {
	cl, err := adbnet.Start(adbnet.Options{
		Workers:   workers,
		Fragments: nodes,
		Dataset:   dataset,
		Params:    SpecDatasetParams{Seed: c.Seed, Nodes: nodes},
		Exec: adbnet.ExecConfig{
			MemBudget: c.Budget,
			Optimizer: adbnet.OptimizerConfig{Mode: int(optimizer.ModeStatic), WindowSize: 4, Seed: c.Seed},
		},
		InProcess: true,
		KeepAlive: 500 * time.Millisecond,
	})
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: start cluster: %w", c, err)
	}
	defer cl.Close()

	store, cat, err := loadSpecTables(c, nodes)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: %w", c, err)
	}
	bound, err := c.Spec.Bind(cat)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: bind: %w", c, err)
	}
	want := RefSpec(c, bound)

	s := session.New(store, session.Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 4, Seed: c.Seed},
		MemBudget: c.Budget,
		Net:       cl,
	})
	q, err := session.FromSpec(cat, c.Spec)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: FromSpec: %w", c, err)
	}
	res, err := s.Execute(q)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: tcp[nodes=%d,workers=%d]: %w", c, nodes, workers, err)
	}
	if err := diffRows(fmt.Sprintf("tcp[nodes=%d,workers=%d] vs reference", nodes, workers), res.Rows, want); err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: %w", c, err)
	}

	// And against the simulated NodeSet over a second identical store:
	// the two fabrics must be interchangeable row for row.
	store2, cat2, err := loadSpecTables(c, nodes)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: %w", c, err)
	}
	sim := session.New(store2, session.Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 4, Seed: c.Seed},
		MemBudget:   c.Budget,
		Distributed: nodes > 1,
	})
	q2, err := session.FromSpec(cat2, c.Spec)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: FromSpec: %w", c, err)
	}
	sres, err := sim.Execute(q2)
	if err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: sim[nodes=%d]: %w", c, nodes, err)
	}
	if err := diffRows(fmt.Sprintf("tcp[nodes=%d,workers=%d] vs sim", nodes, workers), res.Rows, sres.Rows); err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: %w", c, err)
	}
	// Both N-node fabrics drive their exchanges through one producer
	// over the same filters, so unless a budget makes demotion
	// timing-dependent they move, drop and meter the same rows. (At one
	// node the simulated session is the one-node fabric, which moves
	// nothing.)
	tc, sc := res.Counters, sres.Counters
	exch := func(c cluster.Counters) [4]float64 {
		return [4]float64{c.ExchLocalRows, c.ExchRemoteRows, c.ExchBytes, c.ExchFilteredRows}
	}
	if nodes > 1 && c.Budget == 0 && exch(tc) != exch(sc) {
		return cluster.Counters{}, fmt.Errorf("%s: tcp[nodes=%d,workers=%d] metered local, remote rows, bytes, dropped rows %v; sim %v",
			c, nodes, workers, exch(tc), exch(sc))
	}
	if err := SameOutcome(fmt.Sprintf("tcp[nodes=%d,workers=%d] vs sim", nodes, workers), res, sres, nodes > 1 && c.Budget == 0); err != nil {
		return cluster.Counters{}, fmt.Errorf("%s: %w", c, err)
	}
	return tc, nil
}

// SameOutcome checks that a query run over TCP reports what the same
// query reported on the simulated fabric: the adaptation, every join's
// strategy, output rows and hyper-join reads, and every operator's
// label, node, output rows and width. The TCP coordinator computes none of
// these itself; it merges them from the workers. simSeconds also
// demands bit-equal simulated seconds — only meaningful against the
// N-node simulated fabric (the one-node fabric prices exchanges by
// class) and without a budget (demotion order moves spill counters).
func SameOutcome(what string, tcp, sim *session.Result, simSeconds bool) error {
	if tcp.Adapt != sim.Adapt {
		return fmt.Errorf("%s: adaptation %+v, sim %+v", what, tcp.Adapt, sim.Adapt)
	}
	if simSeconds && tcp.SimSeconds != sim.SimSeconds {
		return fmt.Errorf("%s: %v sim-s, sim %v", what, tcp.SimSeconds, sim.SimSeconds)
	}
	if !slices.Equal(tcp.Report.Joins, sim.Report.Joins) {
		return fmt.Errorf("%s: joins %+v, sim %+v", what, tcp.Report.Joins, sim.Report.Joins)
	}
	row := func(op exec.OpStats) string {
		return fmt.Sprintf("%s@%d:%d rows of %d cols", op.Label, op.Node, op.Rows, op.Cols)
	}
	if len(tcp.Ops) != len(sim.Ops) {
		return fmt.Errorf("%s: %d operators, sim %d", what, len(tcp.Ops), len(sim.Ops))
	}
	for i := range tcp.Ops {
		if a, b := row(tcp.Ops[i]), row(sim.Ops[i]); a != b {
			return fmt.Errorf("%s: operator %d is %s, sim %s", what, i, a, b)
		}
	}
	return nil
}
