// Package query is the declarative logical-query layer: a Spec names
// tables, columns, an n-way join graph (multi-attribute and cyclic
// edges allowed), pushdown predicates, and group-by/aggregate clauses,
// all by name. Binding a Spec against a Catalog resolves every name to
// the physical schema up front — a misspelled column is a typed
// ErrUnknownColumn at bind time, never a silently wrong positional
// join — and yields a Bound form the planner lowers to its internal
// Node IR via greedy zone-map-driven join ordering (planner.CompileSpec).
//
// Spec is the public query surface: session.FromSpec, serve, the
// benches and the differential harness all consume it; hand-built
// planner.Node trees remain as the compiler's internal representation.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"adaptdb/internal/core"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/value"
)

// Typed binding errors, matchable with errors.Is through the wrapped
// context (which table, which column).
var (
	// ErrUnknownTable reports a table or alias no Catalog entry or
	// TableRef declares.
	ErrUnknownTable = errors.New("query: unknown table")
	// ErrUnknownColumn reports a column name absent from its table's
	// schema.
	ErrUnknownColumn = errors.New("query: unknown column")
)

// Catalog resolves table names to loaded tables at bind time.
type Catalog map[string]*core.Table

// Pred is a named-column pushdown predicate on one table.
type Pred struct {
	Col string
	Op  predicate.Op
	// Val is the comparison operand; Vals the IN list.
	Val  value.Value
	Vals []value.Value
}

// Cmp builds a comparison predicate on a named column.
func Cmp(col string, op predicate.Op, v value.Value) Pred {
	return Pred{Col: col, Op: op, Val: v}
}

// In builds a membership predicate on a named column.
func In(col string, vs ...value.Value) Pred {
	return Pred{Col: col, Op: predicate.In, Vals: vs}
}

// NamedPreds renders positional predicates in named form against the
// table's schema, for generators that draw predicates by position.
func NamedPreds(sch *schema.Schema, preds []predicate.Predicate) []Pred {
	out := make([]Pred, len(preds))
	for i, p := range preds {
		out[i] = Pred{Col: sch.Name(p.Col), Op: p.Op, Val: p.Val, Vals: p.Vals}
	}
	return out
}

// TableRef names one table of the query, with optional alias (for
// self-joins) and pushdown predicates.
type TableRef struct {
	Name string
	// As is the alias column references use; empty means Name.
	As    string
	Preds []Pred
}

// T builds a table reference.
func T(name string, preds ...Pred) TableRef {
	return TableRef{Name: name, Preds: preds}
}

func (t TableRef) alias() string {
	if t.As != "" {
		return t.As
	}
	return t.Name
}

// Col names one column of one table (by alias).
type Col struct {
	Table, Column string
}

// C builds a column reference.
func C(table, column string) Col { return Col{Table: table, Column: column} }

// JoinEdge is one edge of the join graph: an equi-join between two
// tables on one or more attribute pairs (Left[i] = Right[i]). Edges may
// form cycles; every attribute pair beyond what the ordered join tree
// consumes becomes a residual equality filter.
type JoinEdge struct {
	Left, Right []Col
}

// On builds a single-attribute join edge.
func On(l, r Col) JoinEdge {
	return JoinEdge{Left: []Col{l}, Right: []Col{r}}
}

// AggFunc identifies an aggregate function.
type AggFunc uint8

// The supported aggregates.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String renders the function name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "agg?" + strconv.Itoa(int(f))
}

// Agg is one aggregate clause. Col is ignored for AggCount (COUNT(*)).
type Agg struct {
	Func AggFunc
	Col  Col
}

// Count builds COUNT(*).
func Count() Agg { return Agg{Func: AggCount} }

// Sum builds SUM(c).
func Sum(c Col) Agg { return Agg{Func: AggSum, Col: c} }

// Min builds MIN(c).
func Min(c Col) Agg { return Agg{Func: AggMin, Col: c} }

// Max builds MAX(c).
func Max(c Col) Agg { return Agg{Func: AggMax, Col: c} }

// Avg builds AVG(c).
func Avg(c Col) Agg { return Agg{Func: AggAvg, Col: c} }

// Spec is one declarative query: tables with pushdown predicates, a
// join graph, and optional grouping/aggregation. Without Aggs and
// GroupBy the result is the joined rows with columns in table
// declaration order; with GroupBy and/or Aggs each result row is the
// group-by columns followed by the aggregate values (one row total for
// a global aggregate, even over an empty input).
type Spec struct {
	// Label tags results; informational.
	Label   string
	Tables  []TableRef
	Joins   []JoinEdge
	GroupBy []Col
	Aggs    []Agg
}

// BoundTable is one table resolved against the catalog.
type BoundTable struct {
	Ref   TableRef
	Table *core.Table
	Preds []predicate.Predicate
}

// BoundEdge is one join edge with endpoints as table indexes and
// attributes as column indexes (parallel lists, LCols[i] = RCols[i]).
type BoundEdge struct {
	L, R         int
	LCols, RCols []int
}

// BoundCol is a resolved column reference.
type BoundCol struct {
	Table, Col int
}

// BoundAgg is a resolved aggregate; Table is -1 for COUNT(*).
type BoundAgg struct {
	Func       AggFunc
	Table, Col int
}

// Bound is a Spec with every name resolved — what the planner lowers.
type Bound struct {
	Spec    Spec
	Tables  []BoundTable
	Joins   []BoundEdge
	GroupBy []BoundCol
	Aggs    []BoundAgg
}

// Grouped reports whether the query aggregates (any group-by column or
// aggregate clause).
func (b *Bound) Grouped() bool {
	return len(b.GroupBy) > 0 || len(b.Aggs) > 0
}

// Bind resolves the spec against a catalog: every table name, column
// name and alias is checked, join-graph connectivity is enforced, and
// predicates become positional predicate.Predicate values. The returned
// Bound is immutable by convention and safe to share across compiles.
func (s Spec) Bind(cat Catalog) (*Bound, error) {
	if len(s.Tables) == 0 {
		return nil, fmt.Errorf("query: spec %q has no tables", s.Label)
	}
	b := &Bound{Spec: s}
	byAlias := make(map[string]int, len(s.Tables))
	for i, tr := range s.Tables {
		tbl, ok := cat[tr.Name]
		if !ok || tbl == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTable, tr.Name)
		}
		alias := tr.alias()
		if _, dup := byAlias[alias]; dup {
			return nil, fmt.Errorf("query: duplicate table alias %q", alias)
		}
		byAlias[alias] = i
		bt := BoundTable{Ref: tr, Table: tbl}
		for _, p := range tr.Preds {
			idx := tbl.Schema.Index(p.Col)
			if idx < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, alias, p.Col)
			}
			bt.Preds = append(bt.Preds, predicate.Predicate{
				Col: idx, Op: p.Op, Val: p.Val, Vals: p.Vals,
			})
		}
		b.Tables = append(b.Tables, bt)
	}

	resolve := func(c Col) (BoundCol, error) {
		ti, ok := byAlias[c.Table]
		if !ok {
			return BoundCol{}, fmt.Errorf("%w: %q (in column %s.%s)", ErrUnknownTable, c.Table, c.Table, c.Column)
		}
		idx := b.Tables[ti].Table.Schema.Index(c.Column)
		if idx < 0 {
			return BoundCol{}, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, c.Table, c.Column)
		}
		return BoundCol{Table: ti, Col: idx}, nil
	}

	for ei, e := range s.Joins {
		if len(e.Left) == 0 || len(e.Left) != len(e.Right) {
			return nil, fmt.Errorf("query: join edge %d has mismatched attribute lists (%d vs %d)",
				ei, len(e.Left), len(e.Right))
		}
		be := BoundEdge{L: -1, R: -1}
		for ai := range e.Left {
			l, err := resolve(e.Left[ai])
			if err != nil {
				return nil, err
			}
			r, err := resolve(e.Right[ai])
			if err != nil {
				return nil, err
			}
			if ai == 0 {
				be.L, be.R = l.Table, r.Table
			} else if l.Table != be.L || r.Table != be.R {
				return nil, fmt.Errorf("query: join edge %d mixes tables across attribute pairs", ei)
			}
			be.LCols = append(be.LCols, l.Col)
			be.RCols = append(be.RCols, r.Col)
		}
		if be.L == be.R {
			return nil, fmt.Errorf("query: join edge %d joins table %q to itself (alias one side)",
				ei, s.Tables[be.L].alias())
		}
		b.Joins = append(b.Joins, be)
	}

	// Connectivity: a disconnected graph would need a cross product,
	// which the operator machinery deliberately does not provide.
	if err := b.checkConnected(); err != nil {
		return nil, err
	}

	for _, c := range s.GroupBy {
		bc, err := resolve(c)
		if err != nil {
			return nil, err
		}
		b.GroupBy = append(b.GroupBy, bc)
	}
	for _, a := range s.Aggs {
		ba := BoundAgg{Func: a.Func, Table: -1, Col: -1}
		if a.Func != AggCount {
			bc, err := resolve(a.Col)
			if err != nil {
				return nil, err
			}
			ba.Table, ba.Col = bc.Table, bc.Col
		}
		b.Aggs = append(b.Aggs, ba)
	}
	return b, nil
}

// checkConnected verifies every table is reachable through join edges.
func (b *Bound) checkConnected() error {
	if len(b.Tables) <= 1 {
		return nil
	}
	adj := make([][]int, len(b.Tables))
	for _, e := range b.Joins {
		adj[e.L] = append(adj[e.L], e.R)
		adj[e.R] = append(adj[e.R], e.L)
	}
	seen := make([]bool, len(b.Tables))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[t] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("query: table %q is not connected to the join graph (missing edge)",
				b.Spec.Tables[i].alias())
		}
	}
	return nil
}

// Uses derives the optimizer's per-table touch descriptors from the
// join graph: each table's join attribute is the first attribute of the
// first edge referencing it (edge declaration order), or -1 when no
// edge touches it. This replaces hand-maintained TableUse lists — the
// descriptors can no longer drift from what the query actually joins.
func (b *Bound) Uses() []optimizer.TableUse {
	out := make([]optimizer.TableUse, len(b.Tables))
	for i, t := range b.Tables {
		out[i] = optimizer.TableUse{Table: t.Table, JoinAttr: -1, Preds: t.Preds}
	}
	for _, e := range b.Joins {
		if out[e.L].JoinAttr < 0 {
			out[e.L].JoinAttr = e.LCols[0]
		}
		if out[e.R].JoinAttr < 0 {
			out[e.R].JoinAttr = e.RCols[0]
		}
	}
	return out
}

// Fingerprint renders the bound spec's full logical shape — tables,
// aliases, predicates, every join-graph edge with every attribute pair,
// group-by columns and aggregate clauses — as a canonical string. It is
// the spec side of the plan-cache key contract: two specs differing in
// any of those fields fingerprint differently, so they can never share
// a cached ordering (layout versions and runner knobs are the
// planner's half of the key).
func (b *Bound) Fingerprint() string {
	var sb strings.Builder
	sb.Grow(128)
	for i, t := range b.Tables {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.Table.Name)
		if a := t.Ref.alias(); a != t.Table.Name {
			sb.WriteByte('=')
			sb.WriteString(a)
		}
		for _, p := range t.Preds {
			sb.WriteByte(';')
			sb.WriteString(p.String())
		}
	}
	sb.WriteString("|J")
	for i, e := range b.Joins {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(e.L))
		for _, c := range e.LCols {
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(c))
		}
		sb.WriteByte('~')
		sb.WriteString(strconv.Itoa(e.R))
		for _, c := range e.RCols {
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(c))
		}
	}
	sb.WriteString("|G")
	for i, c := range b.GroupBy {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c.Table))
		sb.WriteByte('.')
		sb.WriteString(strconv.Itoa(c.Col))
	}
	sb.WriteString("|A")
	for i, a := range b.Aggs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.Func.String())
		if a.Table >= 0 {
			sb.WriteByte('(')
			sb.WriteString(strconv.Itoa(a.Table))
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(a.Col))
			sb.WriteByte(')')
		}
	}
	return sb.String()
}
