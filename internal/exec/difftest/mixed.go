// The block-layer differential: base tables whose columns carry
// everything a typed column vector must survive — NULL runs, NaN, ±0
// and ±Inf floats, a column that mixes kinds (so its vector demotes to
// boxed storage), nullable strings — driven as an adaptive query stream
// whose join attribute shifts mid-stream. Every query scans the blocks
// through the vectorized predicate kernel, hyper-joins them where the
// layouts line up, and between queries the optimizer physically
// re-routes buckets (smooth repartitioning's MoveBuckets, the
// full-repartition rewrite, Amoeba's leaf-pair swaps). Each result is
// diffed against the boxed oracle: row-wise Predicate.Matches plus
// NestedLoopJoin over the generated rows.
package difftest

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/session"
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

// MixedQuery is one query of a mixed stream with its positional form
// for the oracle.
type MixedQuery struct {
	Spec         query.Spec
	Key          int // the join column, on both sides
	LPred, RPred []predicate.Predicate
}

// MixedCase is one generated block-layer scenario.
type MixedCase struct {
	Seed        int64
	Left, Right SpecTable
	Stream      []MixedQuery
	// Mode and Amoeba pick the repartitioning machinery the shift sets
	// off: smooth MoveBuckets, the full ReplaceTreeData rewrite, and
	// Amoeba's leaf-pair swaps on the predicate columns.
	Mode   optimizer.Mode
	Amoeba bool
	// Budget is the session memory budget in bytes (0 = unlimited).
	Budget int64
}

func (c MixedCase) String() string {
	return fmt.Sprintf("mixed seed=%d |L|=%d |R|=%d queries=%d mode=%d amoeba=%v budget=%d",
		c.Seed, len(c.Left.Rows), len(c.Right.Rows), len(c.Stream), c.Mode, c.Amoeba, c.Budget)
}

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

// GenMixedCase builds the case for a seed — deterministic, so failures
// replay from the reported seed alone.
func GenMixedCase(seed int64) MixedCase {
	rng := rand.New(rand.NewSource(seed))
	c := MixedCase{Seed: seed}
	nL, nR := 300+rng.Intn(500), 200+rng.Intn(400)
	keyRange := int64(40 + (nL+nR)/6)
	c.Left = SpecTable{Name: "ml", Sch: mixedSchema("ml"), Rows: genMixedRows(rng, nL, keyRange)}
	c.Right = SpecTable{Name: "mr", Sch: mixedSchema("mr"), Rows: genMixedRows(rng, nR, keyRange)}
	switch rng.Intn(4) {
	case 0:
		c.Mode = optimizer.ModeFullRepartition
	default:
		c.Mode = optimizer.ModeAdaptive
		c.Amoeba = rng.Intn(2) == 0
	}
	// Join attribute a, then b, then a again: each shift migrates both
	// tables toward trees on the new key while queries keep running.
	for i, key := range []int{mixKeyA, mixKeyA, mixKeyB, mixKeyB, mixKeyB, mixKeyB, mixKeyB, mixKeyA, mixKeyA, mixKeyA} {
		q := MixedQuery{Key: key, LPred: genMixedPreds(rng), RPred: genMixedPreds(rng)}
		q.Spec = query.Spec{
			Label: fmt.Sprintf("mixed-%d-q%d", seed, i),
			Tables: []query.TableRef{
				{Name: c.Left.Name, Preds: namedPreds(c.Left.Sch, q.LPred)},
				{Name: c.Right.Name, Preds: namedPreds(c.Right.Sch, q.RPred)},
			},
			Joins: []query.JoinEdge{query.On(
				query.C(c.Left.Name, c.Left.Sch.Name(key)), query.C(c.Right.Name, c.Right.Sch.Name(key)))},
		}
		c.Stream = append(c.Stream, q)
	}
	return c
}

func namedPreds(sch *schema.Schema, preds []predicate.Predicate) []query.Pred {
	var out []query.Pred
	for _, p := range preds {
		out = append(out, query.Pred{Col: sch.Name(p.Col), Op: p.Op, Val: p.Val, Vals: p.Vals})
	}
	return out
}

func (c MixedCase) rowBytes() int64 {
	return rowsMemBytes(c.Left.Rows) + rowsMemBytes(c.Right.Rows)
}

func (c MixedCase) optimizerConfig() optimizer.Config {
	return optimizer.Config{Mode: c.Mode, WindowSize: 4, EnableAmoeba: c.Amoeba, Seed: c.Seed}
}

// loadMixedTables loads both relations co-partitioned on key a (the
// hyper-join-eligible layout) over a fresh nodes-wide store.
func loadMixedTables(c MixedCase, nodes int) (*dfs.Store, query.Catalog, error) {
	store := dfs.NewStore(nodes, 2, c.Seed)
	cat := query.Catalog{}
	for i, t := range []SpecTable{c.Left, c.Right} {
		ct, err := core.Load(store, t.Name, t.Sch, t.Rows, core.LoadOptions{
			RowsPerBlock: 48, Seed: c.Seed + int64(i), JoinAttr: mixKeyA,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", t.Name, err)
		}
		cat[t.Name] = ct
	}
	return store, cat, nil
}

// MixedDatasetName is the registered builder for GenMixedCase replicas.
const MixedDatasetName = "difftest-mixed"

// RegisterMixedDataset installs the mixed-case dataset builder; test
// mains call it before adbnet.MaybeWorker, like RegisterSpecDataset.
func RegisterMixedDataset() {
	adbnet.RegisterDataset(MixedDatasetName, func(raw json.RawMessage) (*dfs.Store, query.Catalog, error) {
		var p SpecDatasetParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, nil, fmt.Errorf("difftest: decode mixed params: %w", err)
		}
		return loadMixedTables(GenMixedCase(p.Seed), p.Nodes)
	})
}

// spillLeftovers lists what a finished query must not leave under the
// spill root: anything but the (empty) per-worker directories a TCP
// cluster keeps there for its lifetime.
func spillLeftovers(root string) ([]string, error) {
	var left []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() && filepath.Dir(path) == root && strings.HasPrefix(d.Name(), "adaptdb-net-w") {
			return nil
		}
		left = append(left, path)
		return nil
	})
	return left, err
}

// MixedStats says what a mixed run exercised, so a test can tell a
// vacuous pass (no migration, no hyper-join) from a real one.
type MixedStats struct {
	MovedRows, FullRepartitions, AmoebaTransforms, HyperJoins, ResultRows int
}

func (a *MixedStats) add(b MixedStats) {
	a.MovedRows += b.MovedRows
	a.FullRepartitions += b.FullRepartitions
	a.AmoebaTransforms += b.AmoebaTransforms
	a.HyperJoins += b.HyperJoins
	a.ResultRows += b.ResultRows
}

// RunMixedCase replays the case's stream through one adaptive session
// over a nodes-wide store — the simulated fabric, or a TCP cluster of
// in-process workers when tcp is set — and diffs every query against
// the boxed oracle; over TCP each query must also report what the same
// stream reports on the simulated fabric (SameOutcome). After each
// query the leak wall must hold: the session's budget back to zero and
// spillDir (which must start empty and, over TCP, be the process's
// TMPDIR) holding no run file or per-join directory. The closing check
// that every row is stored once reads the session's own store, which
// the TCP coordinator never migrates: only the simulated run checks a
// migrated layout there.
func RunMixedCase(c MixedCase, nodes int, tcp bool, spillDir string) (MixedStats, error) {
	var st MixedStats
	store, cat, err := loadMixedTables(c, nodes)
	if err != nil {
		return st, fmt.Errorf("%s: %w", c, err)
	}
	cfg := session.Config{
		Optimizer: c.optimizerConfig(), MemBudget: c.Budget, SpillDir: spillDir, Distributed: nodes > 1,
	}
	fabric := fmt.Sprintf("sim[nodes=%d]", nodes)
	var sim *session.Session
	var simCat query.Catalog
	if tcp {
		simStore, cat, err := loadMixedTables(c, nodes)
		if err != nil {
			return st, fmt.Errorf("%s: %w", c, err)
		}
		sim, simCat = session.New(simStore, cfg), cat
		fabric = fmt.Sprintf("tcp[nodes=%d]", nodes)
		cl, err := adbnet.Start(adbnet.Options{
			Workers: nodes, Fragments: nodes,
			Dataset: MixedDatasetName,
			Params:  SpecDatasetParams{Seed: c.Seed, Nodes: nodes},
			Exec: adbnet.ExecConfig{
				MemBudget: c.Budget,
				Optimizer: adbnet.OptimizerConfig{Mode: int(c.Mode), WindowSize: 4, Amoeba: c.Amoeba, Seed: c.Seed},
			},
			InProcess: true,
			KeepAlive: 500 * time.Millisecond,
		})
		if err != nil {
			return st, fmt.Errorf("%s: start cluster: %w", c, err)
		}
		defer cl.Close()
		cfg.Net = cl
	}
	s := session.New(store, cfg)
	for i, mq := range c.Stream {
		q, err := session.FromSpec(cat, mq.Spec)
		if err != nil {
			return st, fmt.Errorf("%s: FromSpec: %w", c, err)
		}
		res, err := s.Execute(q)
		if err != nil {
			return st, fmt.Errorf("%s: %s query %d: %w", c, fabric, i, err)
		}
		want := exec.NestedLoopJoin(
			filterRows(c.Left.Rows, mq.LPred), filterRows(c.Right.Rows, mq.RPred), mq.Key, mq.Key)
		if err := diffRows(fmt.Sprintf("%s query %d", fabric, i), res.Rows, want); err != nil {
			return st, fmt.Errorf("%s: %w", c, err)
		}
		if sim != nil {
			sq, err := session.FromSpec(simCat, mq.Spec)
			if err != nil {
				return st, fmt.Errorf("%s: FromSpec: %w", c, err)
			}
			sres, err := sim.Execute(sq)
			if err != nil {
				return st, fmt.Errorf("%s: sim[nodes=%d] query %d: %w", c, nodes, i, err)
			}
			if err := SameOutcome(fmt.Sprintf("%s query %d vs sim", fabric, i), res, sres, nodes > 1 && c.Budget == 0); err != nil {
				return st, fmt.Errorf("%s: %w", c, err)
			}
		}
		if used := s.Executor().Mem.Used(); used != 0 {
			return st, fmt.Errorf("%s: %s query %d leaked %d budget bytes", c, fabric, i, used)
		}
		if left, err := spillLeftovers(spillDir); err != nil || len(left) != 0 {
			return st, fmt.Errorf("%s: %s query %d left %v in the spill dir (%v)", c, fabric, i, left, err)
		}
		st.MovedRows += res.Adapt.MovedRows
		st.FullRepartitions += res.Adapt.FullRepartitions
		st.AmoebaTransforms += res.Adapt.AmoebaTransforms
		st.ResultRows += len(want)
		for _, j := range res.Report.Joins {
			if j.Strategy == planner.StratHyper {
				st.HyperJoins++
			}
		}
	}
	// Whatever the optimizer did to the layout, every row is still stored
	// exactly once, cell for cell.
	for _, t := range []SpecTable{c.Left, c.Right} {
		var stored []tuple.Tuple
		for _, ref := range cat[t.Name].AllRefs(nil) {
			blk, _, err := store.GetBlock(ref.Path, 0)
			if err != nil {
				return st, fmt.Errorf("%s: %s: %w", c, fabric, err)
			}
			stored = append(stored, blk.Rows()...)
		}
		if err := diffRows(fabric+" stored "+t.Name, stored, append([]tuple.Tuple(nil), t.Rows...)); err != nil {
			return st, fmt.Errorf("%s: %w", c, err)
		}
	}
	return st, nil
}
