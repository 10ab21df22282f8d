// The block-layer workloads: base tables whose columns carry
// everything a typed column vector must survive — NULL runs, NaN, ±0
// and ±Inf floats, a column that mixes kinds (so its vector demotes to
// boxed storage), nullable strings — driven as an adaptive query stream
// whose join attribute shifts mid-stream. Every query scans the blocks
// through the vectorized predicate kernel, hyper-joins them where the
// layouts line up, and between queries the optimizer physically
// re-routes buckets (smooth repartitioning's MoveBuckets, the
// full-repartition rewrite, Amoeba's leaf-pair swaps). Each result is
// diffed against the boxed reference: row-wise Predicate.Matches plus
// a nested-loop join over the generated rows (RefSpec).
package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"adaptdb/internal/core"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Column layout of both mixed tables.
const (
	mixKeyA  = iota // Int join key of the first phase, NULL-bearing
	mixKeyB         // Int join key the stream shifts to, NULL-bearing
	mixFloat        // Float: NaN, ±0, ±Inf, NULL runs
	mixAny          // declared Int; holds Int, String, Float and NULL cells
	mixStr          // nullable String
	mixCols
)

// mixedSchema is shared by both tables.
func mixedSchema(prefix string) *schema.Schema {
	return schema.MustNew(
		schema.Column{Name: prefix + "_a", Kind: value.Int},
		schema.Column{Name: prefix + "_b", Kind: value.Int},
		schema.Column{Name: prefix + "_f", Kind: value.Float},
		schema.Column{Name: prefix + "_any", Kind: value.Int},
		schema.Column{Name: prefix + "_s", Kind: value.String},
	)
}

var mixedFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -2.5, 1.5, 7}

func genMixedRows(rng *rand.Rand, n int, keyRange int64) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	nullRun := 0
	for i := range rows {
		r := make(tuple.Tuple, mixCols)
		for _, k := range []int{mixKeyA, mixKeyB} {
			if rng.Intn(10) != 0 {
				r[k] = value.NewInt(rng.Int63n(keyRange))
			}
		}
		// NULLs in the float column come in runs, so whole stretches of a
		// block's validity bitmap are clear.
		if nullRun == 0 && rng.Intn(12) == 0 {
			nullRun = 1 + rng.Intn(20)
		}
		if nullRun > 0 {
			nullRun--
		} else {
			r[mixFloat] = value.NewFloat(mixedFloats[rng.Intn(len(mixedFloats))])
		}
		switch rng.Intn(5) {
		case 0:
			r[mixAny] = value.NewString(string(rune('a' + rng.Intn(4))))
		case 1:
			r[mixAny] = value.NewFloat(float64(rng.Intn(4)))
		case 2:
		default:
			r[mixAny] = value.NewInt(rng.Int63n(8))
		}
		if rng.Intn(6) != 0 {
			r[mixStr] = value.NewString(string(rune('p' + rng.Intn(5))))
		}
		rows[i] = r
	}
	return rows
}

// genMixedPreds draws 0–2 pushdown predicates with constants chosen to
// cross the comparison rules: NULL constants (bare and inside IN),
// constants of another kind than the column, IN lists mixing kinds,
// operators a NULL cell would satisfy under the total order (<, <=,
// !=), an empty IN. A NULL cell satisfies none of them, the rule that
// makes zone-map pruning (which skips NULLs) sound. (Non-finite float
// constants stay at the kernel level: a query spec crosses the TCP
// fabric as JSON, which cannot carry NaN or ±Inf.)
func genMixedPreds(rng *rand.Rand) []predicate.Predicate {
	pool := []predicate.Predicate{
		predicate.NewCmp(mixFloat, predicate.GE, value.NewFloat(-2.5)),
		predicate.NewCmp(mixFloat, predicate.EQ, value.NewFloat(0)),
		predicate.NewCmp(mixFloat, predicate.GT, value.NewFloat(1.5)),
		predicate.NewCmp(mixFloat, predicate.GT, value.Value{}),
		predicate.NewCmp(mixFloat, predicate.GT, value.NewInt(3)),
		predicate.NewCmp(mixAny, predicate.GE, value.NewInt(3)),
		predicate.NewCmp(mixAny, predicate.GT, value.NewString("a")),
		predicate.NewCmp(mixAny, predicate.GE, value.NewFloat(1)),
		predicate.NewIn(mixAny, value.NewInt(1), value.NewString("a"), value.NewFloat(2)),
		predicate.NewCmp(mixStr, predicate.GE, value.NewString("r")),
		predicate.NewCmp(mixStr, predicate.EQ, value.NewString("q")),
		predicate.NewIn(mixStr, value.NewString("p"), value.NewString("t")),
		predicate.NewCmp(mixKeyA, predicate.GT, value.NewInt(2)),
		predicate.NewCmp(mixKeyB, predicate.GE, value.NewInt(1)),
		predicate.NewCmp(mixFloat, predicate.LT, value.NewFloat(1.5)),
		predicate.NewCmp(mixFloat, predicate.LE, value.NewFloat(0)),
		predicate.NewCmp(mixAny, predicate.NE, value.NewInt(3)),
		predicate.NewCmp(mixAny, predicate.EQ, value.Value{}),
		predicate.NewCmp(mixStr, predicate.LT, value.NewString("r")),
		predicate.NewIn(mixStr, value.Value{}, value.NewString("q")),
		predicate.NewCmp(mixKeyA, predicate.LE, value.NewInt(5)),
		predicate.NewCmp(mixKeyB, predicate.NE, value.NewInt(2)),
		predicate.NewIn(mixStr),
	}
	var out []predicate.Predicate
	for n := rng.Intn(3); n > 0; n-- {
		out = append(out, pool[rng.Intn(len(pool)-1)])
	}
	if rng.Intn(40) == 0 {
		out = append(out, pool[len(pool)-1]) // the empty IN: nothing survives
	}
	return out
}

// GenMixedCase builds the workload for a seed — deterministic, so
// failures replay from the reported seed alone. Its tables load
// co-partitioned on key a, the hyper-join-eligible layout; the
// optimizer mode picks the repartitioning machinery the shift sets
// off: smooth MoveBuckets, the full ReplaceTreeData rewrite, and
// Amoeba's leaf-pair swaps on the predicate columns.
func GenMixedCase(seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	nL, nR := 300+rng.Intn(500), 200+rng.Intn(400)
	keyRange := int64(40 + (nL+nR)/6)
	left := SpecTable{Name: "ml", Sch: mixedSchema("ml"), Rows: genMixedRows(rng, nL, keyRange)}
	right := SpecTable{Name: "mr", Sch: mixedSchema("mr"), Rows: genMixedRows(rng, nR, keyRange)}
	c := Workload{
		Gen: "mixed", Seed: seed,
		Tables:    []SpecTable{left, right},
		LoadOpts:  core.LoadOptions{RowsPerBlock: 48, JoinAttr: mixKeyA},
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 4, Seed: seed},
	}
	switch rng.Intn(4) {
	case 0:
		c.Optimizer.Mode = optimizer.ModeFullRepartition
	default:
		c.Optimizer.EnableAmoeba = rng.Intn(2) == 0
	}
	// Join attribute a, then b, then a again: each shift migrates both
	// tables toward trees on the new key while queries keep running.
	for i, key := range []int{mixKeyA, mixKeyA, mixKeyB, mixKeyB, mixKeyB, mixKeyB, mixKeyB, mixKeyA, mixKeyA, mixKeyA} {
		c.Stream = append(c.Stream, query.Spec{
			Label: fmt.Sprintf("mixed-%d-q%d", seed, i),
			Tables: []query.TableRef{
				{Name: left.Name, Preds: query.NamedPreds(left.Sch, genMixedPreds(rng))},
				{Name: right.Name, Preds: query.NamedPreds(right.Sch, genMixedPreds(rng))},
			},
			Joins: []query.JoinEdge{query.On(
				query.C(left.Name, left.Sch.Name(key)), query.C(right.Name, right.Sch.Name(key)))},
		})
	}
	return c
}
