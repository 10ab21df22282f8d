package query

import (
	"errors"
	"strings"
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// testCatalog loads three small tables whose shapes exercise binding:
// users(id, age), orders(uid, total), items(oid, sku).
func testCatalog(t *testing.T) Catalog {
	t.Helper()
	store := dfs.NewStore(2, 1, 1)
	load := func(name string, sch *schema.Schema, rows []tuple.Tuple) *core.Table {
		tbl, err := core.Load(store, name, sch, rows, core.LoadOptions{RowsPerBlock: 8, JoinAttr: -1, Seed: 1})
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		return tbl
	}
	users := schema.MustNew(
		schema.Column{Name: "id", Kind: value.Int},
		schema.Column{Name: "age", Kind: value.Int},
	)
	orders := schema.MustNew(
		schema.Column{Name: "uid", Kind: value.Int},
		schema.Column{Name: "total", Kind: value.Float},
	)
	items := schema.MustNew(
		schema.Column{Name: "oid", Kind: value.Int},
		schema.Column{Name: "sku", Kind: value.String},
	)
	var urows, orows, irows []tuple.Tuple
	for i := int64(0); i < 16; i++ {
		urows = append(urows, tuple.Tuple{value.NewInt(i), value.NewInt(20 + i)})
		orows = append(orows, tuple.Tuple{value.NewInt(i % 8), value.NewFloat(float64(i))})
		irows = append(irows, tuple.Tuple{value.NewInt(i % 4), value.NewString("sku")})
	}
	return Catalog{
		"users":  load("users", users, urows),
		"orders": load("orders", orders, orows),
		"items":  load("items", items, irows),
	}
}

func TestBindResolvesNames(t *testing.T) {
	cat := testCatalog(t)
	s := Spec{
		Label: "t",
		Tables: []TableRef{
			T("users", Cmp("age", predicate.GT, value.NewInt(30))),
			T("orders"),
			T("items"),
		},
		Joins: []JoinEdge{
			On(C("users", "id"), C("orders", "uid")),
			On(C("orders", "uid"), C("items", "oid")),
		},
		GroupBy: []Col{C("users", "age")},
		Aggs:    []Agg{Count(), Sum(C("orders", "total"))},
	}
	b, err := s.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Tables) != 3 || len(b.Joins) != 2 {
		t.Fatalf("bound %d tables, %d joins", len(b.Tables), len(b.Joins))
	}
	if b.Tables[0].Preds[0].Col != 1 {
		t.Errorf("age resolved to col %d, want 1", b.Tables[0].Preds[0].Col)
	}
	e := b.Joins[0]
	if e.L != 0 || e.R != 1 || e.LCols[0] != 0 || e.RCols[0] != 0 {
		t.Errorf("edge 0 bound to %+v", e)
	}
	if b.GroupBy[0] != (BoundCol{Table: 0, Col: 1}) {
		t.Errorf("group-by bound to %+v", b.GroupBy[0])
	}
	if b.Aggs[0].Table != -1 || b.Aggs[1].Table != 1 || b.Aggs[1].Col != 1 {
		t.Errorf("aggs bound to %+v", b.Aggs)
	}
	if !b.Grouped() {
		t.Error("Grouped() = false for a grouped spec")
	}
}

func TestBindTypedErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"unknown table", Spec{Tables: []TableRef{T("nope")}}, ErrUnknownTable},
		{"unknown pred column", Spec{Tables: []TableRef{
			T("users", Cmp("agee", predicate.GT, value.NewInt(1))),
		}}, ErrUnknownColumn},
		{"unknown join column", Spec{
			Tables: []TableRef{T("users"), T("orders")},
			Joins:  []JoinEdge{On(C("users", "id"), C("orders", "uidd"))},
		}, ErrUnknownColumn},
		{"unknown join alias", Spec{
			Tables: []TableRef{T("users"), T("orders")},
			Joins:  []JoinEdge{On(C("userz", "id"), C("orders", "uid"))},
		}, ErrUnknownTable},
		{"unknown agg column", Spec{
			Tables: []TableRef{T("users")},
			Aggs:   []Agg{Sum(C("users", "salary"))},
		}, ErrUnknownColumn},
	}
	for _, tc := range cases {
		_, err := tc.spec.Bind(cat)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBindValidatesShape(t *testing.T) {
	cat := testCatalog(t)
	// Disconnected graph.
	_, err := Spec{
		Tables: []TableRef{T("users"), T("orders"), T("items")},
		Joins:  []JoinEdge{On(C("users", "id"), C("orders", "uid"))},
	}.Bind(cat)
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected graph: err = %v", err)
	}
	// Self-join without alias.
	_, err = Spec{
		Tables: []TableRef{T("users"), T("orders")},
		Joins:  []JoinEdge{On(C("users", "id"), C("users", "age"))},
	}.Bind(cat)
	if err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("self edge: err = %v", err)
	}
	// Duplicate alias.
	_, err = Spec{Tables: []TableRef{T("users"), T("users")}}.Bind(cat)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate alias: err = %v", err)
	}
	// Aliased self-join binds fine.
	b, err := Spec{
		Tables: []TableRef{T("users"), {Name: "users", As: "u2"}},
		Joins:  []JoinEdge{On(C("users", "id"), C("u2", "age"))},
	}.Bind(cat)
	if err != nil {
		t.Fatalf("aliased self-join: %v", err)
	}
	if b.Joins[0].L != 0 || b.Joins[0].R != 1 {
		t.Errorf("aliased self-join bound to %+v", b.Joins[0])
	}
}

func TestUsesDerivation(t *testing.T) {
	cat := testCatalog(t)
	b, err := Spec{
		Tables: []TableRef{T("users", Cmp("age", predicate.LT, value.NewInt(40))), T("orders"), T("items")},
		Joins: []JoinEdge{
			On(C("users", "id"), C("orders", "uid")),
			On(C("orders", "uid"), C("items", "oid")),
		},
	}.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	uses := b.Uses()
	if len(uses) != 3 {
		t.Fatalf("%d uses, want 3", len(uses))
	}
	if uses[0].JoinAttr != 0 || uses[1].JoinAttr != 0 || uses[2].JoinAttr != 0 {
		t.Errorf("join attrs = %d,%d,%d", uses[0].JoinAttr, uses[1].JoinAttr, uses[2].JoinAttr)
	}
	if len(uses[0].Preds) != 1 {
		t.Errorf("users preds not carried: %v", uses[0].Preds)
	}
	// A table no edge touches reports -1.
	b2, err := Spec{Tables: []TableRef{T("users")}}.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Uses()[0].JoinAttr; got != -1 {
		t.Errorf("scan-only join attr = %d, want -1", got)
	}
}

// TestFingerprintDiscriminates: every logical spec field must show up
// in the fingerprint — differing tables, aliases, predicates, edges,
// multi-attribute pairs, group-by columns or aggregates can never
// collide (the spec half of the plan-cache key contract).
func TestFingerprintDiscriminates(t *testing.T) {
	cat := testCatalog(t)
	base := Spec{
		Tables: []TableRef{T("users"), T("orders")},
		Joins:  []JoinEdge{On(C("users", "id"), C("orders", "uid"))},
	}
	fp := func(s Spec) string {
		t.Helper()
		b, err := s.Bind(cat)
		if err != nil {
			t.Fatal(err)
		}
		return b.Fingerprint()
	}
	seen := map[string]string{"base": fp(base)}
	check := func(label string, s Spec) {
		t.Helper()
		key := fp(s)
		for prev, k := range seen {
			if k == key {
				t.Errorf("%s fingerprint collides with %s: %q", label, prev, key)
			}
		}
		seen[label] = key
	}

	withPred := base
	withPred.Tables = []TableRef{T("users", Cmp("age", predicate.GT, value.NewInt(1))), T("orders")}
	check("pred", withPred)

	otherCol := base
	otherCol.Joins = []JoinEdge{On(C("users", "age"), C("orders", "uid"))}
	check("join-col", otherCol)

	multiAttr := base
	multiAttr.Joins = []JoinEdge{{Left: []Col{C("users", "id"), C("users", "age")}, Right: []Col{C("orders", "uid"), C("orders", "uid")}}}
	check("multi-attr", multiAttr)

	extraEdge := Spec{
		Tables: []TableRef{T("users"), T("orders"), T("items")},
		Joins: []JoinEdge{
			On(C("users", "id"), C("orders", "uid")),
			On(C("orders", "uid"), C("items", "oid")),
		},
	}
	check("extra-table-edge", extraEdge)

	cyclic := extraEdge
	cyclic.Joins = append(append([]JoinEdge(nil), extraEdge.Joins...),
		On(C("users", "id"), C("items", "oid")))
	check("cyclic-edge", cyclic)

	grouped := base
	grouped.GroupBy = []Col{C("users", "age")}
	check("group-by", grouped)

	grouped2 := base
	grouped2.GroupBy = []Col{C("users", "id")}
	check("group-by-col", grouped2)

	agg1 := base
	agg1.Aggs = []Agg{Count()}
	check("agg-count", agg1)

	agg2 := base
	agg2.Aggs = []Agg{Sum(C("orders", "total"))}
	check("agg-sum", agg2)

	agg3 := base
	agg3.Aggs = []Agg{Min(C("orders", "total"))}
	check("agg-func", agg3)

	aliased := Spec{
		Tables: []TableRef{T("users"), {Name: "users", As: "u2"}},
		Joins:  []JoinEdge{On(C("users", "id"), C("u2", "age"))},
	}
	check("alias", aliased)
}
