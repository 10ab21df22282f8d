package planner_test

import (
	"math/rand"
	"strings"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/tpch"
)

// widthFabric is a fabric whose exchange inputs are instrumented, so a
// test can read the width of every batch an exchange moves: an exchange
// delivers its inputs' batches, packed but never reshaped. (Its outputs
// stay bare: a filtered shuffle's join finds its filter sink there.)
type widthFabric struct {
	exec.Fabric
	exch []*exec.Instrumented
}

func (f *widthFabric) Shuffle(parts []exec.Operator, key int, c exec.Charge) exec.Exchanger {
	return f.Fabric.Shuffle(f.wrap(parts), key, c)
}

func (f *widthFabric) Broadcast(parts []exec.Operator, c exec.Charge) exec.Exchanger {
	return f.Fabric.Broadcast(f.wrap(parts), c)
}

func (f *widthFabric) wrap(parts []exec.Operator) []exec.Operator {
	out := make([]exec.Operator, len(parts))
	for i, p := range parts {
		in := exec.Instrument("exchange", p, nil)
		f.exch = append(f.exch, in)
		out[i] = in
	}
	return out
}

// opTables names the tables a scan or base-table join label reads:
// "scan(orders:residual)@n1" is orders, "join[hyper](lineitem⋈orders)@n0"
// lineitem and orders; an intermediate reads none.
func opTables(label string) []string {
	open, end := strings.IndexByte(label, '('), strings.LastIndexByte(label, ')')
	if open < 0 || end < open {
		return nil
	}
	var out []string
	for _, name := range strings.Split(label[open+1:end], "⋈") {
		name, _, _ = strings.Cut(name, ":")
		if name == "intermediate" || name == "intermediates" {
			return nil
		}
		out = append(out, name)
	}
	return out
}

// TestGroupedSpecCarriesKeptColumns replays the adaptive shift on a
// 4-node fabric and compiles every query twice: as the template's plain
// spec and, where it joins customer, as its grouped form. Read from the
// batches each compiled operator and exchange emitted:
//
//   - the plain spec carries whole rows: every scan emits its table's
//     full width, every base-table join the sum of two, and a
//     projection, where the join order needs one, only reorders them;
//   - the grouped spec carries only the columns it reads: each scan its
//     table's join keys and group inputs, each hyper-join fragment and
//     base-table join the sum of two such lists, every exchange and
//     operator at most all of them, and the fragments' projection the
//     group-by's inputs;
//   - the grouped compile reuses every table-join decision the plain
//     compile cached: the decisions are keyed by table columns, whatever
//     the scans emit.
func TestGroupedSpecCarriesKeptColumns(t *testing.T) {
	f := newCompileFixtureOn(t, 0.01, 4)
	wf := &widthFabric{Fabric: f.runner.Ex.ExecFabric()}
	f.runner.Ex.SetFabric(wf)
	defer f.runner.Ex.SetFabric(nil)
	data := tpch.Generate(0.01, 42)
	full := map[string]int{
		"lineitem": tpch.LineitemSchema.NumCols(), "orders": tpch.OrdersSchema.NumCols(),
		"customer": tpch.CustomerSchema.NumCols(), "part": tpch.PartSchema.NumCols(),
	}
	// GroupedSpec reads l_orderkey, l_partkey, o_orderkey and
	// c_nationkey; the joins add o_custkey, c_custkey and p_partkey.
	kept := map[string]int{"lineitem": 2, "orders": 2, "customer": 2, "part": 1}
	const groupInputs = 4

	opt := optimizer.New(optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: 42})
	rng := rand.New(rand.NewSource(42))
	seen := map[string]int{}
	grouped := 0
	for phase := 0; phase < 4; phase++ {
		tpls := []tpch.Template{tpch.Q5, tpch.Q5, tpch.Q3}
		if phase%2 == 1 {
			tpls = []tpch.Template{tpch.Q8, tpch.Q8, tpch.Q14}
		}
		for i := 0; i < 6; i++ {
			in := tpch.NewInstance(tpls[i%len(tpls)], data, rng)
			plain := bindOn(t, f, in.Spec())
			if _, err := opt.OnQuery(plain.Uses(), &cluster.Meter{}); err != nil {
				t.Fatal(err)
			}
			f.runner.Cache = planner.NewPlanCache(0)
			check(t, f, wf, plain, full, 0, seen)
			if in.Template == tpch.Q14 {
				continue
			}
			misses := f.runner.CacheMisses
			check(t, f, wf, bindOn(t, f, in.GroupedSpec()), kept, groupInputs, seen)
			// One miss: the spec order, keyed by the grouped fingerprint.
			if got := f.runner.CacheMisses - misses; got != 1 {
				t.Fatalf("%s grouped: %d plan-cache misses after the plain compile, want 1 (the spec order)", in.Template, got)
			}
			grouped++
		}
	}
	f.runner.Cache = nil
	t.Logf("batches seen over %d grouped compiles: %v", grouped, seen)
	for _, what := range []string{"scan", "hyper", "exchange", "project", "grouped scan", "grouped hyper", "grouped exchange", "grouped project"} {
		if seen[what] == 0 {
			t.Errorf("no %s emitted a batch over %d grouped compiles: %v", what, grouped, seen)
		}
	}
}

func bindOn(t *testing.T, f *compileFixture, s query.Spec) *query.Bound {
	t.Helper()
	b, err := s.Bind(f.tables.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// check compiles and drains b and holds every batch width to width, the
// per-table column count its scans emit. project is the width of a
// grouped spec's projection, 0 for a plain spec, whose projection
// restores declaration order at full width.
func check(t *testing.T, f *compileFixture, wf *widthFabric, b *query.Bound, width map[string]int, project int, seen map[string]int) {
	t.Helper()
	wf.exch = nil
	c, err := f.runner.CompileSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(nil, c.Root, nil); err != nil {
		t.Fatal(err)
	}
	f.runner.Ex.Nodes().Flush()
	f.runner.Ex.Meter.Reset()
	total := 0
	for _, bt := range b.Tables {
		total += width[bt.Table.Name]
	}
	if project == 0 {
		project = total
	}
	prefix := ""
	if b.Grouped() {
		prefix = "grouped "
	}
	what := b.Spec.Label
	for _, st := range c.OpStats() {
		if st.Cols == 0 || st.Label == "groupby" {
			continue
		}
		want := -1
		switch tbls := opTables(st.Label); {
		case strings.HasPrefix(st.Label, "project@"):
			want = project
			seen[prefix+"project"]++
		case len(tbls) == 1 && strings.HasPrefix(st.Label, "scan("):
			want = width[tbls[0]]
			seen[prefix+"scan"]++
		case len(tbls) == 2:
			want = width[tbls[0]] + width[tbls[1]]
			if strings.HasPrefix(st.Label, "join[hyper") {
				seen[prefix+"hyper"]++
			}
		}
		if want >= 0 && st.Cols != want {
			t.Fatalf("%s: %s emitted %d columns, want %d", what, st.Label, st.Cols, want)
		}
		if st.Cols > total {
			t.Fatalf("%s: %s emitted %d columns, more than the %d its tables emit", what, st.Label, st.Cols, total)
		}
	}
	for _, x := range wf.exch {
		if cols := x.Stats().Cols; cols > 0 {
			seen[prefix+"exchange"]++
			if cols > total {
				t.Fatalf("%s: an exchange delivered %d columns, more than the %d its tables emit", what, cols, total)
			}
		}
	}
}
