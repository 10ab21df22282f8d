// Hash aggregation: the GroupByOp operator closes queries end-to-end —
// instead of returning raw join tuples, a query can group its output
// and reduce each group with COUNT/SUM/MIN/MAX/AVG. The operator
// consumes its child fully at Open (aggregation is a pipeline breaker),
// holds one accumulator set per distinct group key, and emits the
// groups in key order — a deterministic output independent of the
// child's batch arrival order, which parallel scans do not fix.
//
// Grouping semantics follow value.Compare's total order, not join
// semantics: NULL keys form their own group (NULL groups with NULL),
// and NaN groups with NaN. Aggregates skip NULL inputs; SUM and AVG
// accumulate int64 exactly while every input is integer-kinded
// (Int/Date/Bool) and promote to float64 on the first float — so
// integer aggregates are bit-identical across any execution order,
// which the differential oracles rely on.
//
// Group state is charged against the executor's memory budget
// (advisory, like the joins' build charges) and released at Close;
// aggregation does not spill — the ROADMAP tracks spill-aware
// aggregation as an open item.
package exec

import (
	"sort"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// AggFn identifies an aggregate function.
type AggFn uint8

// The supported aggregate functions.
const (
	AggCount AggFn = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate over an input column; Col -1 means COUNT(*)
// (row count, NULLs included). Any other function counts or folds only
// non-NULL values of its column.
type AggSpec struct {
	Fn  AggFn
	Col int
}

// GroupBySpec configures a hash aggregation: the input columns to
// group on (empty = one global group, which emits exactly one row even
// over an empty input) and the aggregates to compute per group. Output
// rows are the group columns followed by the aggregate values.
type GroupBySpec struct {
	GroupCols []int
	Aggs      []AggSpec
}

// groupStateBytes approximates the fixed per-group footprint (bucket
// entry, accumulators) for budget charging; the key's own bytes are
// charged exactly.
const groupStateBytes = 96

// GroupByOp builds a hash-aggregation operator over child.
func (e *Executor) GroupByOp(child Operator, spec GroupBySpec) Operator {
	return &groupByOp{e: e, child: child, spec: spec}
}

// aggAcc is one aggregate's running state within one group.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	floatSum bool
	fold     value.Value
	seen     bool
}

func (a *aggAcc) add(fn AggFn, v value.Value) {
	switch fn {
	case AggCount:
		a.count++
	case AggSum, AggAvg:
		if v.IsNull() {
			return
		}
		a.count++
		switch v.K {
		case value.Int, value.Date, value.Bool:
			if a.floatSum {
				a.sumF += float64(v.I)
			} else {
				a.sumI += v.I
			}
		default:
			// First float (or string, folding in as NaN) promotes the
			// exact integer sum to the float track, once.
			if !a.floatSum {
				a.floatSum = true
				a.sumF = float64(a.sumI)
				a.sumI = 0
			}
			a.sumF += v.Float64()
		}
	case AggMin:
		if v.IsNull() {
			return
		}
		if !a.seen {
			a.fold, a.seen = v, true
		} else {
			a.fold = value.Min(a.fold, v)
		}
	case AggMax:
		if v.IsNull() {
			return
		}
		if !a.seen {
			a.fold, a.seen = v, true
		} else {
			a.fold = value.Max(a.fold, v)
		}
	}
}

func (a *aggAcc) result(fn AggFn) value.Value {
	switch fn {
	case AggCount:
		return value.NewInt(a.count)
	case AggSum:
		if a.count == 0 {
			return value.Value{}
		}
		if a.floatSum {
			return value.NewFloat(a.sumF)
		}
		return value.NewInt(a.sumI)
	case AggAvg:
		if a.count == 0 {
			return value.Value{}
		}
		if a.floatSum {
			return value.NewFloat(a.sumF / float64(a.count))
		}
		// Integer inputs: one exact sum, one divide — deterministic
		// regardless of accumulation order.
		return value.NewFloat(float64(a.sumI) / float64(a.count))
	case AggMin, AggMax:
		if !a.seen {
			return value.Value{}
		}
		return a.fold
	}
	return value.Value{}
}

type groupState struct {
	key  tuple.Tuple
	accs []aggAcc
}

type groupByOp struct {
	e     *Executor
	child Operator
	spec  GroupBySpec

	groups  []*groupState
	buckets map[uint64][]int
	charged int64
	keybuf  tuple.Tuple // scratch for key extraction
	pos     int
	closed  bool
}

func (g *groupByOp) Open() error {
	if err := g.child.Open(); err != nil {
		return err
	}
	g.buckets = make(map[uint64][]int)
	g.keybuf = make(tuple.Tuple, len(g.spec.GroupCols))
	for {
		if err := g.e.ctxErr(); err != nil {
			return err
		}
		b, err := g.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// Read cells straight from the vectors through the selection.
		cb := b.Cols()
		n := cb.Len()
		sel := cb.Sel()
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			for ci, col := range g.spec.GroupCols {
				g.keybuf[ci] = cb.Value(col, i)
			}
			gs := g.lookup(g.keybuf)
			for ai := range g.spec.Aggs {
				a := g.spec.Aggs[ai]
				if a.Fn == AggCount && a.Col < 0 {
					gs.accs[ai].add(a.Fn, value.Value{})
					continue
				}
				gs.accs[ai].add(a.Fn, cb.Value(a.Col, i))
			}
		}
		b.Release()
	}
	if len(g.spec.GroupCols) == 0 && len(g.groups) == 0 {
		// Global aggregate over an empty input still emits one row
		// (COUNT 0, NULL sums) — SQL's scalar-aggregate contract.
		g.groups = append(g.groups, &groupState{accs: make([]aggAcc, len(g.spec.Aggs))})
	}
	// Key order makes the output deterministic whatever order the
	// child's batches arrived in.
	sort.Slice(g.groups, func(i, j int) bool {
		a, b := g.groups[i].key, g.groups[j].key
		for c := range a {
			if cmp := value.Compare(a[c], b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return nil
}

// lookup finds or creates the group for key (scratch — copied on
// insert). Hashing combines the per-column Hash64 order-sensitively;
// collisions resolve by value.Equal, so NULL groups with NULL and NaN
// with NaN (value.Compare semantics, unlike join keys).
func (g *groupByOp) lookup(key tuple.Tuple) *groupState {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range key {
		h ^= v.Hash64()
		h *= prime
	}
	for _, idx := range g.buckets[h] {
		gs := g.groups[idx]
		same := true
		for c := range key {
			if !value.Equal(gs.key[c], key[c]) {
				same = false
				break
			}
		}
		if same {
			return gs
		}
	}
	gs := &groupState{
		key:  append(tuple.Tuple(nil), key...),
		accs: make([]aggAcc, len(g.spec.Aggs)),
	}
	g.buckets[h] = append(g.buckets[h], len(g.groups))
	g.groups = append(g.groups, gs)
	cost := int64(groupStateBytes + gs.key.MemBytes())
	g.charged += cost
	g.e.Mem.Charge(cost) // advisory: aggregation has no spill path yet
	return gs
}

func (g *groupByOp) Next() (*Batch, error) {
	if g.pos >= len(g.groups) {
		return nil, nil
	}
	nk := len(g.spec.GroupCols)
	out := NewColBatch(nk + len(g.spec.Aggs))
	row := make(tuple.Tuple, nk+len(g.spec.Aggs))
	for g.pos < len(g.groups) && !out.Full() {
		gs := g.groups[g.pos]
		copy(row, gs.key)
		for ai := range g.spec.Aggs {
			row[nk+ai] = gs.accs[ai].result(g.spec.Aggs[ai].Fn)
		}
		out.AppendColRow(row)
		g.pos++
	}
	return out, nil
}

func (g *groupByOp) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.e.Mem.Release(g.charged)
	g.charged = 0
	g.groups, g.buckets = nil, nil
	return g.child.Close()
}
