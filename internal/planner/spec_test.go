package planner

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func specCatalog(f *fixture) query.Catalog {
	return query.Catalog{"lineitem": f.line, "orders": f.ord, "customer": f.cust}
}

// threeWay is the canonical test graph: lineitem ⋈ orders on orderkey,
// orders ⋈ customer on custkey.
func threeWay(preds ...query.Pred) query.Spec {
	return query.Spec{
		Label:  "threeway",
		Tables: []query.TableRef{query.T("lineitem", preds...), query.T("orders"), query.T("customer")},
		Joins: []query.JoinEdge{
			query.On(query.C("lineitem", "orderkey"), query.C("orders", "orderkey")),
			query.On(query.C("orders", "custkey"), query.C("customer", "custkey")),
		},
	}
}

// oracleThreeWay joins the raw rows left-to-right with nested loops —
// declaration order, so spec results must match after the planner's
// reordering projection.
func oracleThreeWay(f *fixture, lrows []tuple.Tuple) []tuple.Tuple {
	lo := exec.NestedLoopJoin(lrows, f.orows, 0, 0)
	return exec.NestedLoopJoin(lo, f.crows, 4, 0) // custkey = offset 3 + 1
}

func bindSpec(t *testing.T, f *fixture, s query.Spec) *query.Bound {
	t.Helper()
	b, err := s.Bind(specCatalog(f))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecThreeWayMatchesOracle(t *testing.T) {
	f := setup(t, true)
	b := bindSpec(t, f, threeWay())
	rows, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, oracleThreeWay(f, f.lrows), "greedy three-way")
}

func TestSpecFixedOrderSameRows(t *testing.T) {
	f := setup(t, true)
	preds := []query.Pred{query.Cmp("shipdate", predicate.LT, value.NewInt(800))}
	b := bindSpec(t, f, threeWay(preds...))
	greedy, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	f.runner.FixedOrder = true
	fixed, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, greedy, fixed, "greedy vs fixed order")
}

func TestSpecGreedyOrderPrefersSelectiveEdge(t *testing.T) {
	f := setup(t, true)
	ord := f.runner.planSpecOrder(bindSpec(t, f, threeWay()))
	if ord.empty {
		t.Fatal("non-empty query planned empty")
	}
	// customer (60 rows) and orders (800) are the cheapest edge; lineitem
	// (3000) must come last.
	if ord.seq[len(ord.seq)-1] != 0 {
		t.Errorf("greedy seq = %v, want lineitem (table 0) last", ord.seq)
	}
	f.runner.FixedOrder = true
	ford := f.runner.planSpecOrder(bindSpec(t, f, threeWay()))
	if ford.seq[0] != 0 || ford.seq[1] != 1 || ford.seq[2] != 2 {
		t.Errorf("fixed seq = %v, want declaration order", ford.seq)
	}
}

// TestSpecCyclicEdge: a third edge closes the triangle; the tree skips
// it and the residual filter applies it.
func TestSpecCyclicEdge(t *testing.T) {
	f := setup(t, true)
	s := threeWay()
	s.Joins = append(s.Joins, query.On(query.C("lineitem", "partkey"), query.C("customer", "custkey")))
	b := bindSpec(t, f, s)
	rows, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	for _, r := range oracleThreeWay(f, f.lrows) {
		if value.Equal(r[1], r[5]) { // partkey == customer.custkey
			want = append(want, r)
		}
	}
	sameRows(t, rows, want, "cyclic edge")
}

// TestSpecMultiAttrEdge: a two-attribute edge joins on the first pair
// and residual-filters the second.
func TestSpecMultiAttrEdge(t *testing.T) {
	f := setup(t, true)
	s := query.Spec{
		Tables: []query.TableRef{query.T("lineitem"), query.T("orders")},
		Joins: []query.JoinEdge{
			{
				Left:  []query.Col{query.C("lineitem", "orderkey"), query.C("lineitem", "partkey")},
				Right: []query.Col{query.C("orders", "orderkey"), query.C("orders", "custkey")},
			},
		},
	}
	b := bindSpec(t, f, s)
	rows, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	for _, r := range exec.NestedLoopJoin(f.lrows, f.orows, 0, 0) {
		if value.Equal(r[1], r[4]) { // partkey == custkey
			want = append(want, r)
		}
	}
	sameRows(t, rows, want, "multi-attribute edge")
}

// TestSpecProvablyEmpty: a predicate that prunes one table to nothing
// compiles to the empty stream; a global aggregate still emits its row.
func TestSpecProvablyEmpty(t *testing.T) {
	f := setup(t, true)
	s := threeWay(query.Cmp("shipdate", predicate.LT, value.NewInt(-5)))
	b := bindSpec(t, f, s)
	if ord := f.runner.planSpecOrder(b); !ord.empty {
		t.Error("zero-block table not planned empty")
	}
	rows, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("%d rows from a provably-empty plan", len(rows))
	}
	s.Aggs = []query.Agg{query.Count(), query.Sum(query.C("lineitem", "shipdate"))}
	rows, _, err = collectSpec(f.runner, bindSpec(t, f, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty global aggregate = %v", rows)
	}
}

// TestSpecDisjointRangesEmpty: zone maps on the join columns prove the
// edge can never match (orderkey < 50 vs orderkey > 300).
func TestSpecDisjointRangesEmpty(t *testing.T) {
	f := setup(t, true)
	s := query.Spec{
		Tables: []query.TableRef{
			query.T("lineitem", query.Cmp("orderkey", predicate.LT, value.NewInt(50))),
			query.T("orders", query.Cmp("orderkey", predicate.GT, value.NewInt(300))),
		},
		Joins: []query.JoinEdge{query.On(query.C("lineitem", "orderkey"), query.C("orders", "orderkey"))},
	}
	b := bindSpec(t, f, s)
	if ord := f.runner.planSpecOrder(b); !ord.empty {
		t.Error("disjoint join ranges not planned empty")
	}
	rows, _, err := collectSpec(f.runner, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("%d rows, want 0", len(rows))
	}
}

func TestSpecSingleTable(t *testing.T) {
	f := setup(t, true)
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(500))}
	s := query.Spec{Tables: []query.TableRef{
		query.T("lineitem", query.Cmp("shipdate", predicate.LT, value.NewInt(500))),
	}}
	rows, _, err := collectSpec(f.runner, bindSpec(t, f, s))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, filter(f.lrows, preds), "single-table spec")
}

// TestSpecGroupByMatchesReference: the full grouped pipeline — 3-way
// join, group by customer nation, COUNT/SUM/MIN/AVG — against a
// map-based reference over the nested-loop oracle.
func TestSpecGroupByMatchesReference(t *testing.T) {
	f := setup(t, true)
	s := threeWay()
	s.GroupBy = []query.Col{query.C("customer", "nation")}
	s.Aggs = []query.Agg{
		query.Count(),
		query.Sum(query.C("lineitem", "shipdate")),
		query.Min(query.C("lineitem", "partkey")),
		query.Avg(query.C("orders", "custkey")),
	}
	rows, _, err := collectSpec(f.runner, bindSpec(t, f, s))
	if err != nil {
		t.Fatal(err)
	}

	type acc struct {
		n, sum, minp, csum int64
		seen               bool
	}
	ref := map[int64]*acc{}
	for _, r := range oracleThreeWay(f, f.lrows) {
		nation := r[6].Int64()
		a := ref[nation]
		if a == nil {
			a = &acc{}
			ref[nation] = a
		}
		a.n++
		a.sum += r[2].Int64()  // lineitem.shipdate
		a.csum += r[4].Int64() // orders.custkey
		if !a.seen || r[1].Int64() < a.minp {
			a.minp, a.seen = r[1].Int64(), true
		}
	}
	if len(rows) != len(ref) {
		t.Fatalf("%d groups, reference %d", len(rows), len(ref))
	}
	for _, r := range rows {
		a := ref[r[0].Int64()]
		if a == nil {
			t.Fatalf("unexpected group %v", r[0])
		}
		if r[1].Int64() != a.n || r[2].Int64() != a.sum || r[3].Int64() != a.minp {
			t.Errorf("group %v = %v, want n=%d sum=%d min=%d", r[0], r, a.n, a.sum, a.minp)
		}
		wantAvg := float64(a.csum) / float64(a.n)
		if r[4].Float64() != wantAvg {
			t.Errorf("group %v avg = %v, want %v", r[0], r[4], wantAvg)
		}
	}
}

// TestSpecOrderCached: orderings memoize under the spec key and stop
// being addressable when a table's layout changes.
func TestSpecOrderCached(t *testing.T) {
	f := setup(t, true)
	f.runner.Cache = NewPlanCache(0)
	b := bindSpec(t, f, threeWay())

	if _, err := f.runner.CompileSpec(b); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := f.runner.CacheMisses
	if missesAfterFirst == 0 {
		t.Fatal("first compile should miss")
	}
	if _, err := f.runner.CompileSpec(b); err != nil {
		t.Fatal(err)
	}
	if f.runner.CacheHits == 0 {
		t.Error("second compile should hit the cached ordering")
	}
	relayout(t, f.line)
	if _, err := f.runner.CompileSpec(b); err != nil {
		t.Fatal(err)
	}
	if f.runner.CacheMisses <= missesAfterFirst {
		t.Error("a layout change should invalidate the cached ordering")
	}
}

// TestSpecKeyDiscriminates extends the plan-cache key contract to every
// spec field: join-graph shape, group-by columns, aggregate functions,
// and the ordering knob can never share a cached ordering.
func TestSpecKeyDiscriminates(t *testing.T) {
	f := setup(t, true)
	key := func(s query.Spec) string { return f.runner.specKey(bindSpec(t, f, s)) }

	seen := map[string]string{}
	check := func(label string, k string) {
		t.Helper()
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("%s key collides with %s: %q", label, prev, k)
			}
		}
		seen[label] = k
	}

	base := threeWay()
	check("base", key(base))

	pred := threeWay(query.Cmp("shipdate", predicate.LT, value.NewInt(5)))
	check("pred", key(pred))

	cyc := threeWay()
	cyc.Joins = append(cyc.Joins, query.On(query.C("lineitem", "partkey"), query.C("customer", "custkey")))
	check("cyclic-edge", key(cyc))

	multi := threeWay()
	multi.Joins[0] = query.JoinEdge{
		Left:  []query.Col{query.C("lineitem", "orderkey"), query.C("lineitem", "partkey")},
		Right: []query.Col{query.C("orders", "orderkey"), query.C("orders", "custkey")},
	}
	check("multi-attr", key(multi))

	grouped := threeWay()
	grouped.GroupBy = []query.Col{query.C("customer", "nation")}
	check("group-by", key(grouped))

	grouped2 := threeWay()
	grouped2.GroupBy = []query.Col{query.C("customer", "custkey")}
	check("group-by-col", key(grouped2))

	agg := threeWay()
	agg.Aggs = []query.Agg{query.Sum(query.C("lineitem", "shipdate"))}
	check("agg-sum", key(agg))

	agg2 := threeWay()
	agg2.Aggs = []query.Agg{query.Max(query.C("lineitem", "shipdate"))}
	check("agg-func", key(agg2))

	f.runner.FixedOrder = true
	check("fixed-order", key(base))
	f.runner.FixedOrder = false

	relayout(t, f.ord)
	check("version", key(base))

	for label, k := range seen {
		if !strings.HasPrefix(k, "S|") {
			t.Errorf("%s key %q lacks the spec namespace prefix", label, k)
		}
	}
}

// TestSpecFootprint: grouped or not, a multi-join spec prices a
// non-zero build footprint; the empty plan prices zero.
func TestSpecFootprint(t *testing.T) {
	f := setup(t, true)
	if fp := f.runner.EstimateSpecFootprint(bindSpec(t, f, threeWay())); fp <= 0 {
		t.Errorf("three-way footprint = %d, want > 0", fp)
	}
	empty := threeWay(query.Cmp("shipdate", predicate.LT, value.NewInt(-5)))
	if fp := f.runner.EstimateSpecFootprint(bindSpec(t, f, empty)); fp != 0 {
		t.Errorf("empty-plan footprint = %d, want 0", fp)
	}
}

// TestUnionRangeMatchesBoxedFold checks unionRange's typed fold against
// the fold of the refs' boxed ranges on columns whose zones are Int,
// Date, NULL-only in some blocks, or of different kinds in different
// blocks — the last falls back to the boxed fold itself.
func TestUnionRangeMatchesBoxedFold(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "k", Kind: value.Int},
		schema.Column{Name: "nullable", Kind: value.Int},
		schema.Column{Name: "d", Kind: value.Date},
		schema.Column{Name: "kinds", Kind: value.Int},
		schema.Column{Name: "dnullable", Kind: value.Date},
	)
	rng := rand.New(rand.NewSource(3))
	var rows []tuple.Tuple
	for i := 0; i < 2000; i++ {
		k := rng.Int63n(400)
		r := tuple.Tuple{value.NewInt(k), {}, value.NewDate(rng.Int63n(90) - 40), value.NewInt(rng.Int63n(50)), {}}
		if k >= 200 {
			// Blocks under k < 200 hold NULLs only: their provably-empty
			// Ranget, Int 1 to Int 0, widens the union.
			r[1] = value.NewInt(rng.Int63n(500) + 100)
			r[4] = value.NewDate(rng.Int63n(500) + 100)
		}
		if k >= 300 {
			r[3] = value.NewDate(rng.Int63n(50))
		}
		rows = append(rows, r)
	}
	store := dfs.NewStore(2, 1, 3)
	tbl, err := core.Load(store, "u", sch, rows, core.LoadOptions{RowsPerBlock: 50, Seed: 3, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	all := tbl.AllRefs(nil)
	for trial := 0; trial < 200; trial++ {
		var refs []core.BlockRef
		for _, r := range all {
			if rng.Intn(4) == 0 {
				refs = append(refs, r)
			}
		}
		if trial == 0 {
			refs = all
		}
		for col := 0; col < sch.NumCols(); col++ {
			var want predicate.Range
			for i, ref := range refs {
				if i == 0 {
					want = ref.JoinRange(col)
					continue
				}
				want = rangeUnion(want, ref.JoinRange(col))
			}
			if got := unionRange(refs, col); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d col %d: union %v, boxed fold %v", trial, col, got, want)
			}
		}
	}
}
