package session

import (
	"math/rand"
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
	"adaptdb/internal/workload"
)

var (
	factSch = schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
		schema.Column{Name: "v", Kind: value.Int},
	)
	dimSch = schema.MustNew(
		schema.Column{Name: "key", Kind: value.Int},
		schema.Column{Name: "payload", Kind: value.Int},
	)
)

type fixture struct {
	store        *dfs.Store
	fact, da, db *core.Table
	frows        []tuple.Tuple
	darows       []tuple.Tuple
	dbrows       []tuple.Tuple
}

func setup(t *testing.T) *fixture {
	t.Helper()
	store := dfs.NewStore(4, 2, 5)
	rng := rand.New(rand.NewSource(17))
	f := &fixture{store: store}
	for i := 0; i < 4096; i++ {
		f.frows = append(f.frows, tuple.Tuple{
			value.NewInt(rng.Int63n(200)),
			value.NewInt(rng.Int63n(50)),
			value.NewInt(rng.Int63n(1000)),
		})
	}
	for i := int64(0); i < 200; i++ {
		f.darows = append(f.darows, tuple.Tuple{value.NewInt(i), value.NewInt(i * 7)})
	}
	for i := int64(0); i < 50; i++ {
		f.dbrows = append(f.dbrows, tuple.Tuple{value.NewInt(i), value.NewInt(i * 11)})
	}
	var err error
	// The fact table starts randomly partitioned (no join tree), as §7.3
	// does; the dims are co-partitioned on their keys.
	if f.fact, err = core.Load(store, "fact", factSch, f.frows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 2, JoinAttr: -1,
	}); err != nil {
		t.Fatal(err)
	}
	if f.da, err = core.Load(store, "dim_a", dimSch, f.darows, core.LoadOptions{
		RowsPerBlock: 32, Seed: 3, JoinAttr: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if f.db, err = core.Load(store, "dim_b", dimSch, f.dbrows, core.LoadOptions{
		RowsPerBlock: 16, Seed: 4, JoinAttr: 0,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// query builds a fact ⋈ dim session query joining on the given fact
// column, with a selection on fact.v to vary instances.
func (f *fixture) query(attr int, vmax int64) Query {
	dim := f.da
	if attr == 1 {
		dim = f.db
	}
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(vmax))}
	return Query{
		Label: "fact-dim",
		Plan: &planner.Join{
			Left:  &planner.Scan{Table: f.fact, Preds: preds},
			Right: &planner.Scan{Table: dim},
			LCol:  attr, RCol: 0,
		},
	}
}

func filterRows(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

func sameRows(t *testing.T, got, want []tuple.Tuple, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", label, len(got), len(want))
	}
	exec.SortRows(got)
	exec.SortRows(want)
	for i := range got {
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, got[i], want[i])
			}
		}
	}
}

// factState snapshots what the Fig. 11 step will see for the fact
// table before a query executes.
type factState struct {
	treeIdx   int
	total     int
	share     float64
	maxBucket int
	nAfterAdd int
}

func snapshotFact(s *Session, f *fixture, attr int) factState {
	st := factState{treeIdx: f.fact.TreeFor(attr)}
	for _, i := range f.fact.LiveTrees() {
		st.total += f.fact.RowsUnder(i)
		for _, b := range f.fact.Trees[i].LiveBuckets() {
			if c, _ := f.fact.Trees[i].Count(b); c > st.maxBucket {
				st.maxBucket = c
			}
		}
	}
	if st.treeIdx >= 0 && st.total > 0 {
		st.share = float64(f.fact.RowsUnder(st.treeIdx)) / float64(st.total)
	}
	// Predict n = |{q ∈ W : attr}| after this query joins the window.
	w := s.opt.Window("fact")
	qs := append([]workload.Query{}, w.Queries()...)
	qs = append(qs, workload.Query{JoinAttr: attr})
	if len(qs) > w.Cap() {
		qs = qs[1:]
	}
	for _, q := range qs {
		if q.JoinAttr == attr {
			st.nAfterAdd++
		}
	}
	return st
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestSessionAdaptiveStream replays a mixed-attribute query stream and
// checks the full loop: fmin-gated tree creation, Fig. 11 migration
// fractions (p = n/|W| − |T′|/(|T|+|T′|)), result correctness against
// a materialized oracle throughout, and convergence once the workload
// settles on one attribute.
func TestSessionAdaptiveStream(t *testing.T) {
	f := setup(t)
	const fmin, window = 2, 8
	s := New(f.store, Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: window, FMin: fmin, Seed: 5},
	})

	// attr per step: a, a, b, a, b, then b-only until convergence.
	attrs := []int{0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	for i, attr := range attrs {
		pre := snapshotFact(s, f, attr)
		q := f.query(attr, int64(500+i*25))
		res, err := s.Execute(q)
		if err != nil {
			t.Fatal(err)
		}

		// Migration accounting (only the fact table can move: the dims'
		// trees already hold 100% of their rows, so p ≤ 0 for them).
		var budget int
		switch {
		case pre.treeIdx < 0 && pre.nAfterAdd < fmin:
			if f.fact.TreeFor(attr) >= 0 {
				t.Fatalf("q%d: tree on attr %d created before fmin=%d (n=%d)", i, attr, fmin, pre.nAfterAdd)
			}
		case pre.treeIdx < 0:
			if f.fact.TreeFor(attr) < 0 || res.Adapt.CreatedTrees != 1 {
				t.Fatalf("q%d: tree on attr %d not created at fmin (n=%d): %+v", i, attr, pre.nAfterAdd, res.Adapt)
			}
			budget = int(float64(fmin) / float64(window) * float64(pre.total))
		default:
			p := float64(pre.nAfterAdd)/float64(window) - pre.share
			if p > 0 {
				budget = int(p * float64(pre.total))
			}
		}
		if budget == 0 && pre.treeIdx >= 0 {
			if res.Adapt.MovedRows != 0 {
				t.Fatalf("q%d: moved %d rows with p ≤ 0", i, res.Adapt.MovedRows)
			}
		}
		if budget > 0 && abs(res.Adapt.MovedRows-budget) > pre.maxBucket {
			t.Fatalf("q%d: moved %d rows, Fig. 11 target %d (±%d bucket rows)",
				i, res.Adapt.MovedRows, budget, pre.maxBucket)
		}

		// Results must match the materialized oracle at every step, mid
		// transition included.
		preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(int64(500+i*25)))}
		dimRows := f.darows
		if attr == 1 {
			dimRows = f.dbrows
		}
		want := exec.NestedLoopJoin(filterRows(f.frows, preds), dimRows, attr, 0)
		sameRows(t, res.Rows, want, res.Label)

		if res.Report == nil || len(res.Report.Joins) != 1 {
			t.Fatalf("q%d: report = %+v", i, res.Report)
		}
		// A hyper join scans its blocks inside the operator, so the DAG
		// can legitimately be a single instrumented op; it must never be
		// empty or unlabeled.
		if len(res.Ops) < 1 || res.Ops[0].Label == "" {
			t.Fatalf("q%d: expected per-operator stats, got %+v", i, res.Ops)
		}
	}

	// The stream settled on attr b: migration must have fully drained
	// the older trees by now (drop-when-drained in the Fig. 11 loop).
	live := f.fact.LiveTrees()
	if len(live) != 1 || f.fact.Trees[live[0]].Tree.JoinAttr != 1 {
		t.Fatalf("fact table should have converged to one tree on b; live=%v", live)
	}
	if s.seq != len(attrs) {
		t.Fatalf("queries run = %d, want %d", s.seq, len(attrs))
	}
}

// TestSessionThreeTableDAG compiles and runs a 3-table plan through the
// session: (fact ⋈ dim_a) ⋈ dim_b with the intermediate streaming into
// the second join's build side — no whole-table slice materialization.
func TestSessionThreeTableDAG(t *testing.T) {
	f := setup(t)
	s := New(f.store, Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 8, Seed: 5},
	})
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(700))}
	inner := &planner.Join{
		Left:  &planner.Scan{Table: f.fact, Preds: preds},
		Right: &planner.Scan{Table: f.da},
		LCol:  0, RCol: 0,
	}
	plan := &planner.Join{
		Left:  inner,
		Right: &planner.Scan{Table: f.db},
		LCol:  1, RCol: 0, // fact.b in the concatenated row
	}
	q := Query{
		Label: "three-table",
		Plan:  plan,
	}
	res, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	lo := exec.NestedLoopJoin(filterRows(f.frows, preds), f.darows, 0, 0)
	want := exec.NestedLoopJoin(lo, f.dbrows, 1, 0)
	sameRows(t, res.Rows, want, "three-table")
	if len(res.Report.Joins) != 2 {
		t.Fatalf("expected 2 join reports, got %+v", res.Report.Joins)
	}
	// The DAG is one operator tree: scans, the inner join, and the outer
	// join all instrumented individually.
	if len(res.Ops) < 5 {
		t.Fatalf("expected ≥5 instrumented operators in the DAG, got %d: %+v", len(res.Ops), res.Ops)
	}
	for _, op := range res.Ops {
		if op.Label == "" {
			t.Fatalf("unlabeled operator stats: %+v", res.Ops)
		}
	}
}

// TestSessionStreamAvoidsMaterialization checks the Stream path counts
// rows identically to Execute without retaining them.
func TestSessionStreamAvoidsMaterialization(t *testing.T) {
	f := setup(t)
	cfg := Config{Optimizer: optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 8, Seed: 5}}
	a := New(f.store, cfg)
	b := New(f.store, cfg)
	q := f.query(0, 600)
	resA, err := a.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	resB, err := b.Stream(q, func(batch *exec.Batch) error { batches++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if resB.Rows != nil {
		t.Fatalf("Stream must not materialize rows")
	}
	if resA.RowCount != resB.RowCount {
		t.Fatalf("Execute counted %d rows, Stream %d", resA.RowCount, resB.RowCount)
	}
	if resB.RowCount > 0 && batches == 0 {
		t.Fatalf("sink never saw a batch")
	}
}

// TestSessionReproducible replays the same stream on two sessions built
// from the same seeds and expects identical adaptation and metering.
func TestSessionReproducible(t *testing.T) {
	run := func() []float64 {
		f := setup(t)
		s := New(f.store, Config{
			Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 8, FMin: 2, Seed: 9},
		})
		var sims []float64
		for i, attr := range []int{0, 1, 1, 0, 1, 1} {
			res, err := s.Execute(f.query(attr, int64(400+i*30)))
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, res.SimSeconds)
		}
		return sims
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sim-seconds diverged at q%d: %v vs %v", i, a, b)
		}
	}
}
