// The spec differential harness: the n-way analogue of the pair-join
// oracle. Every SpecCase generates a small random query graph — 3–4
// tables, prefix-connected join edges with occasional multi-attribute
// and cyclic extras, pushdown predicates, and an optional group-by
// aggregation — and asserts that the full declarative path (query.Spec
// → greedy ordering → lowered plan → operators, through both
// session.Session and serve.Service) reproduces the reference result:
// an n-way nested-loop join in declaration order followed by a direct
// reference aggregation. Aggregates are restricted to integer columns
// so the result is bit-identical across join orders, node counts, and
// memory budgets.
//
// A case is a pure function of its seed; failures replay from the seed.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// SpecTable is one generated relation of a spec case. Preds holds the
// positional form of the pushdown predicates; the spec carries the
// same predicates by column name.
type SpecTable struct {
	Name  string
	Sch   *schema.Schema
	Rows  []tuple.Tuple
	Preds []predicate.Predicate
}

// SpecCase is one generated n-way differential scenario.
type SpecCase struct {
	Seed   int64
	Tables []SpecTable
	Spec   query.Spec
	// Budget is the session/serve memory budget in bytes (0 =
	// unlimited); the acceptance matrix overrides it per run.
	Budget int64
}

func (c SpecCase) String() string {
	sizes := ""
	for i, t := range c.Tables {
		if i > 0 {
			sizes += "/"
		}
		sizes += fmt.Sprint(len(t.Rows))
	}
	return fmt.Sprintf("spec seed=%d tables=%d rows=%s edges=%d group=%d aggs=%d budget=%d",
		c.Seed, len(c.Tables), sizes, len(c.Spec.Joins), len(c.Spec.GroupBy), len(c.Spec.Aggs), c.Budget)
}

// GenSpecCase builds the spec case for a seed — deterministic, so
// failures replay from the reported seed alone.
func GenSpecCase(seed int64) SpecCase {
	rng := rand.New(rand.NewSource(seed))
	c := SpecCase{Seed: seed}
	nt := 3 + rng.Intn(2)

	// Tables: column 0 is always Int so every table can join; later
	// columns are mostly Int (join/group/agg candidates) with some
	// payload columns of arbitrary kind.
	intCols := make([][]int, nt)
	for t := 0; t < nt; t++ {
		name := fmt.Sprintf("t%d", t)
		ncols := 2 + rng.Intn(3)
		cols := make([]schema.Column, ncols)
		for i := range cols {
			k := value.Int
			if i > 0 && rng.Intn(4) == 0 {
				k = kinds[rng.Intn(len(kinds))]
			}
			if k == value.Int {
				intCols[t] = append(intCols[t], i)
			}
			cols[i] = schema.Column{Name: fmt.Sprintf("%s_c%d", name, i), Kind: k}
		}
		sch := schema.MustNew(cols...)
		n := 0
		switch rng.Intn(8) {
		case 0:
		case 1:
			n = rng.Intn(6)
		default:
			n = 12 + rng.Intn(110)
		}
		// Key range near the row count keeps expected join fan-out low
		// enough that a 4-way join stays small but still hits.
		keyRange := int64(8 + n)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			r := make(tuple.Tuple, ncols)
			for cix := range r {
				if sch.Kind(cix) == value.Int {
					if rng.Intn(12) == 0 {
						r[cix] = value.Value{} // NULL keys must never join
					} else {
						r[cix] = value.NewInt(rng.Int63n(keyRange))
					}
				} else {
					r[cix] = genValue(rng, sch.Kind(cix))
				}
			}
			rows[i] = r
		}
		// 0–2 pushdown predicates over Int columns, mirrored into the
		// spec by name below.
		var preds []predicate.Predicate
		for p := rng.Intn(3); p > 0 && len(intCols[t]) > 0; p-- {
			col := intCols[t][rng.Intn(len(intCols[t]))]
			op := []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE}[rng.Intn(4)]
			preds = append(preds, predicate.NewCmp(col, op, value.NewInt(rng.Int63n(keyRange))))
		}
		c.Tables = append(c.Tables, SpecTable{Name: name, Sch: sch, Rows: rows, Preds: preds})
		ref := query.TableRef{Name: name}
		for _, p := range preds {
			ref.Preds = append(ref.Preds, query.Pred{Col: sch.Name(p.Col), Op: p.Op, Val: p.Val, Vals: p.Vals})
		}
		c.Spec.Tables = append(c.Spec.Tables, ref)
	}
	c.Spec.Label = fmt.Sprintf("spec-%d", seed)

	pick := func(t int) query.Col {
		cix := intCols[t][rng.Intn(len(intCols[t]))]
		return query.C(c.Tables[t].Name, c.Tables[t].Sch.Name(cix))
	}
	// Prefix-connected declaration order: table t joins some earlier
	// table; 1 in 5 edges carries a second attribute pair.
	for t := 1; t < nt; t++ {
		p := rng.Intn(t)
		e := query.On(pick(p), pick(t))
		if rng.Intn(5) == 0 {
			e.Left = append(e.Left, pick(p))
			e.Right = append(e.Right, pick(t))
		}
		c.Spec.Joins = append(c.Spec.Joins, e)
	}
	// 1 in 4 cases closes a cycle (or doubles an edge) — the extra
	// edge's equalities apply as a residual filter after the join tree.
	if rng.Intn(4) == 0 {
		a := rng.Intn(nt)
		b := rng.Intn(nt - 1)
		if b >= a {
			b++
		}
		c.Spec.Joins = append(c.Spec.Joins, query.On(pick(a), pick(b)))
	}

	// Aggregation shape: 2 in 5 plain join, 1 in 5 global aggregate,
	// 2 in 5 grouped. Aggregates fold only Int columns so SUM and AVG
	// stay exact (bit-identical across execution orders).
	shape := rng.Intn(5)
	if shape >= 2 {
		for g := 1 + rng.Intn(2); g > 0 && shape >= 3; g-- {
			c.Spec.GroupBy = append(c.Spec.GroupBy, pick(rng.Intn(nt)))
		}
		c.Spec.Aggs = append(c.Spec.Aggs, query.Count())
		for a := 1 + rng.Intn(2); a > 0; a-- {
			col := pick(rng.Intn(nt))
			switch rng.Intn(4) {
			case 0:
				c.Spec.Aggs = append(c.Spec.Aggs, query.Sum(col))
			case 1:
				c.Spec.Aggs = append(c.Spec.Aggs, query.Min(col))
			case 2:
				c.Spec.Aggs = append(c.Spec.Aggs, query.Max(col))
			default:
				c.Spec.Aggs = append(c.Spec.Aggs, query.Avg(col))
			}
		}
	}

	switch rng.Intn(3) {
	case 1:
		c.Budget = int64(4096 + rng.Intn(16384)) // starved
	case 2:
		if b := c.rowBytes() / int64(4+rng.Intn(8)); b > 0 {
			c.Budget = b
		}
	}
	return c
}

func (c SpecCase) rowBytes() int64 {
	var n int64
	for _, t := range c.Tables {
		n += rowsMemBytes(t.Rows)
	}
	return n
}

// RefSpec computes the case's reference result: filter each table with
// its own predicates, nested-loop join the tables in declaration order
// applying every edge's full attribute list, then aggregate directly.
// The output column order is the declaration-order concatenation of
// the table schemas — the same layout CompileSpec restores.
func RefSpec(c SpecCase, b *query.Bound) []tuple.Tuple {
	offs := make([]int, len(c.Tables))
	for i := 1; i < len(c.Tables); i++ {
		offs[i] = offs[i-1] + c.Tables[i-1].Sch.NumCols()
	}
	cur := filterRows(c.Tables[0].Rows, c.Tables[0].Preds)
	for t := 1; t < len(c.Tables); t++ {
		// Equality pairs against the already-joined prefix: every edge
		// whose later endpoint is t lands here exactly once.
		var pairs [][2]int // (accumulated col, table-t col)
		for _, e := range b.Joins {
			for i := range e.LCols {
				l, r := e.LCols[i], e.RCols[i]
				if e.R == t && e.L < t {
					pairs = append(pairs, [2]int{offs[e.L] + l, r})
				} else if e.L == t && e.R < t {
					pairs = append(pairs, [2]int{offs[e.R] + r, l})
				}
			}
		}
		next := filterRows(c.Tables[t].Rows, c.Tables[t].Preds)
		var out []tuple.Tuple
		for _, lr := range cur {
			for _, rr := range next {
				ok := true
				for _, p := range pairs {
					if lr[p[0]].IsNull() || rr[p[1]].IsNull() || !value.Equal(lr[p[0]], rr[p[1]]) {
						ok = false
						break
					}
				}
				if ok {
					out = append(out, tuple.Concat(lr, rr))
				}
			}
		}
		cur = out
	}
	if !b.Grouped() {
		return cur
	}
	return refSpecAggregate(cur, b, offs)
}

// refSpecAggregate mirrors exec.GroupByOp's contract directly: groups
// follow value.Compare's total order (NULL with NULL, NaN with NaN),
// COUNT(*) counts rows, the fold aggregates skip NULLs, integer SUM
// accumulates exactly in int64, and the output is sorted by group key.
func refSpecAggregate(rows []tuple.Tuple, b *query.Bound, offs []int) []tuple.Tuple {
	gcols := make([]int, len(b.GroupBy))
	for i, g := range b.GroupBy {
		gcols[i] = offs[g.Table] + g.Col
	}
	keyOf := func(r tuple.Tuple) tuple.Tuple {
		k := make(tuple.Tuple, len(gcols))
		for i, c := range gcols {
			k[i] = r[c]
		}
		return k
	}
	sorted := append([]tuple.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ki, kj := keyOf(sorted[i]), keyOf(sorted[j])
		for c := range ki {
			if d := value.Compare(ki[c], kj[c]); d != 0 {
				return d < 0
			}
		}
		return false
	})

	type group struct {
		key  tuple.Tuple
		rows []tuple.Tuple
	}
	var groups []group
	for _, r := range sorted {
		k := keyOf(r)
		if len(groups) > 0 {
			last := groups[len(groups)-1].key
			same := true
			for c := range k {
				if value.Compare(k[c], last[c]) != 0 {
					same = false
					break
				}
			}
			if same {
				groups[len(groups)-1].rows = append(groups[len(groups)-1].rows, r)
				continue
			}
		}
		groups = append(groups, group{key: k, rows: []tuple.Tuple{r}})
	}
	if len(gcols) == 0 {
		// Global aggregate: exactly one output row even over no input.
		groups = []group{{key: tuple.Tuple{}, rows: sorted}}
	}

	out := make([]tuple.Tuple, 0, len(groups))
	for _, g := range groups {
		row := append(tuple.Tuple(nil), g.key...)
		for _, a := range b.Aggs {
			col := -1
			if a.Table >= 0 {
				col = offs[a.Table] + a.Col
			}
			row = append(row, refAggValue(a.Func, g.rows, col))
		}
		out = append(out, row)
	}
	return out
}

func refAggValue(fn query.AggFunc, rows []tuple.Tuple, col int) value.Value {
	if fn == query.AggCount && col < 0 {
		return value.NewInt(int64(len(rows)))
	}
	var (
		sum   int64
		count int64
		fold  value.Value
		seen  bool
	)
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		count++
		sum += v.I // agg columns are Int by construction
		if !seen {
			fold, seen = v, true
		} else if fn == query.AggMin {
			fold = value.Min(fold, v)
		} else if fn == query.AggMax {
			fold = value.Max(fold, v)
		}
	}
	switch fn {
	case query.AggCount:
		return value.NewInt(count)
	case query.AggSum:
		if count == 0 {
			return value.Value{}
		}
		return value.NewInt(sum)
	case query.AggAvg:
		if count == 0 {
			return value.Value{}
		}
		return value.NewFloat(float64(sum) / float64(count))
	default: // Min, Max
		if !seen {
			return value.Value{}
		}
		return fold
	}
}

// loadSpecTables loads the case's relations over a fresh nodes-wide
// store and returns the catalog for binding.
func loadSpecTables(c SpecCase, nodes int) (*dfs.Store, query.Catalog, error) {
	store := dfs.NewStore(nodes, 2, c.Seed)
	cat := query.Catalog{}
	for i, t := range c.Tables {
		ct, err := core.Load(store, t.Name, t.Sch, t.Rows, core.LoadOptions{
			RowsPerBlock: 64, Seed: c.Seed + int64(i), JoinAttr: -1,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", t.Name, err)
		}
		cat[t.Name] = ct
	}
	return store, cat, nil
}

// RunSpecCase runs one case's declarative query end-to-end through both
// public surfaces — a session stream and a serve.Service request — over
// a nodes-wide store each, and diffs both results against RefSpec. Each
// surface gets a freshly loaded store so layouts cannot leak between
// them.
func RunSpecCase(c SpecCase, nodes int) error {
	store, cat, err := loadSpecTables(c, nodes)
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	bound, err := c.Spec.Bind(cat)
	if err != nil {
		return fmt.Errorf("%s: bind: %w", c, err)
	}
	want := RefSpec(c, bound)

	s := session.New(store, session.Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 4, Seed: c.Seed},
		MemBudget:   c.Budget,
		Distributed: nodes > 1,
	})
	q, err := session.FromSpec(cat, c.Spec)
	if err != nil {
		return fmt.Errorf("%s: FromSpec: %w", c, err)
	}
	res, err := s.Execute(q)
	if err != nil {
		return fmt.Errorf("%s: session[nodes=%d]: %w", c, nodes, err)
	}
	if err := diffRows(fmt.Sprintf("session[nodes=%d]", nodes), res.Rows, want); err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}

	store2, cat2, err := loadSpecTables(c, nodes)
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	// serve's MemBudget is the admission pool, not a per-operator
	// budget: a reservation above the pool is shed outright, and the
	// floor is minReserve. A budgeted case therefore gets a pool large
	// enough to always admit — the per-query budget is then sized to
	// the planner's footprint estimate, which is the serving-path
	// memory pressure this harness checks results under.
	servePool := c.Budget
	if servePool > 0 {
		servePool = 1 << 30
	}
	svc := serve.New(store2, serve.Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 4, Seed: c.Seed},
		MemBudget:   servePool,
		Distributed: nodes > 1,
	})
	q2, err := session.FromSpec(cat2, c.Spec)
	if err != nil {
		return fmt.Errorf("%s: FromSpec: %w", c, err)
	}
	sres, err := svc.Execute(context.Background(), "difftest", q2)
	if err != nil {
		return fmt.Errorf("%s: serve[nodes=%d]: %w", c, nodes, err)
	}
	if err := diffRows(fmt.Sprintf("serve[nodes=%d]", nodes), sres.Rows, want); err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	return nil
}
