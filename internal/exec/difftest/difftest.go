// Package difftest is the oracle/fuzz differential harness for the
// join engine: every case generates a random pair of relations —
// random schemas, a key distribution drawn from the nasty end of the
// spectrum (NULL-heavy, heavily skewed, all-duplicate, non-finite
// floats), and a memory budget that may starve the build side — and
// asserts that every production join path produces exactly the
// NestedLoopJoin oracle's multiset:
//
//   - the parallel radix JoinOp, both build orientations, budgeted and
//     not (the budgeted runs exercise the spilling hybrid hash join of
//     exec/spill.go, including recursive re-partitioning and the
//     chunked all-duplicate fallback),
//   - the full planner-compiled distributed path at 1/4/8 node
//     executors, with exchanges, per-node budget shares, and whatever
//     join strategy the cost model picks (a shuffle join's probe
//     exchange drops the rows its node's build-key filter rejects).
//
// A case is a pure function of its seed, so every failure is
// replayable: report the seed, rerun Generate(seed).
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Dists enumerates the key distributions cases draw from. zipfdisjoint
// targets the Bloom skip path: the left side's keys pile Zipf-style
// onto a few hot values while the right side draws mostly (80%) from a
// disjoint key range — nearly every probe row of a spilled partition is
// skippable, and the 20% overlap proves skipping never loses a real
// match.
// dupstr forces a string key drawn from three hot values: long
// duplicate chains through the columnar string chain walk and the
// intern cache, with the chunked fallback in reach under tight
// budgets.
// rdfskew models an RDF-style entity workload: keys are entity ids
// drawn from a true Zipf law (s≈1.3), so a handful of hub entities
// carry most of the triples — hotter than "skewed"'s cubed-uniform
// pile-up, with a long thin tail of rare ids on both sides.
var Dists = []string{"uniform", "skewed", "dup", "nullheavy", "sparse", "weird", "zipfdisjoint", "dupstr", "rdfskew"}

// Shapes enumerates the relation-size shapes cases draw from. The heavy
// shapes put three orders of magnitude between the sides, so budgeted
// runs hit the second pass with one side's run files far smaller than
// the other's — the role-reversal trigger.
var Shapes = []string{"balanced", "leftheavy", "rightheavy"}

// Case is one generated differential scenario.
type Case struct {
	Seed        int64
	Dist        string
	Shape       string
	Left, Right []tuple.Tuple
	LSch, RSch  *schema.Schema
	LCol, RCol  int
	// Budget is the executor memory budget in bytes (0 = unlimited).
	Budget int64
	// EstFactor injects build-size estimate error: the joins receive
	// BuildRowsEst = |build| × EstFactor (planner paths scale through
	// Runner.EstScale). 0 means no estimate at all; the adversarial
	// values are 0.1 and 10 — wrong by 10x in either direction, which
	// must bend only the fan-out choice, never the result.
	EstFactor float64
	// CoPart loads the distributed tables with a join tree on the key
	// (the hyper-join-eligible layout) instead of random partitioning.
	CoPart bool
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d dist=%s shape=%s |L|=%d |R|=%d budget=%d est=%g copart=%v",
		c.Seed, c.Dist, c.Shape, len(c.Left), len(c.Right), c.Budget, c.EstFactor, c.CoPart)
}

// kindName renders values for schema column kinds.
var kinds = []value.Kind{value.Int, value.Float, value.String, value.Date, value.Bool}

// Generate builds the case for a seed — deterministic, so failures
// replay from the reported seed alone.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed, Dist: Dists[rng.Intn(len(Dists))]}
	keyKind := kinds[rng.Intn(4)] // Int, Float, String, Date
	if c.Dist == "weird" {
		keyKind = value.Float // non-finite floats need a float key
	}
	if c.Dist == "dupstr" {
		keyKind = value.String // hot duplicate chains need a string key
	}
	c.LSch, c.LCol = genSchema(rng, "l", keyKind)
	c.RSch, c.RCol = genSchema(rng, "r", keyKind)
	var nL, nR int
	switch rng.Intn(4) {
	case 0:
		c.Shape = "leftheavy"
		nL, nR = 600+rng.Intn(900), 1+rng.Intn(10)
	case 1:
		c.Shape = "rightheavy"
		nL, nR = 1+rng.Intn(10), 600+rng.Intn(900)
	default:
		c.Shape = "balanced"
		nL, nR = genCount(rng), genCount(rng)
	}
	keyRange := int64(1 + (nL+nR)/3) // dense enough that joins hit
	rDist := c.Dist
	if c.Dist == "zipfdisjoint" {
		rDist = "zipfdisjointR" // probe side draws from the disjoint range
	}
	c.Left = genRows(rng, c.LSch, c.LCol, nL, c.Dist, keyKind, keyRange)
	c.Right = genRows(rng, c.RSch, c.RCol, nR, rDist, keyKind, keyRange)
	switch rng.Intn(3) {
	case 0: // unlimited
	case 1:
		c.Budget = int64(512 + rng.Intn(4096)) // starved: everything spills
	case 2:
		if b := rowsMemBytes(c.Left) / int64(2+rng.Intn(7)); b > 0 {
			c.Budget = b // a fraction of the build side
		}
	}
	switch rng.Intn(4) {
	case 0:
		c.EstFactor = 0.1 // 10x under: fan-out too small, spill depth grows
	case 1:
		c.EstFactor = 10 // 10x over: fan-out too large, partitions fragment
	}
	c.CoPart = rng.Intn(2) == 0
	return c
}

// genCount skews small but includes empty and mid-size relations.
func genCount(rng *rand.Rand) int {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2:
		return rng.Intn(8)
	default:
		return 16 + rng.Intn(500)
	}
}

// genSchema builds a 1–4 column schema whose key column (returned
// index) has the given kind.
func genSchema(rng *rand.Rand, prefix string, keyKind value.Kind) (*schema.Schema, int) {
	n := 1 + rng.Intn(4)
	keyCol := rng.Intn(n)
	cols := make([]schema.Column, n)
	for i := range cols {
		k := kinds[rng.Intn(len(kinds))]
		if i == keyCol {
			k = keyKind
		}
		cols[i] = schema.Column{Name: fmt.Sprintf("%s%d", prefix, i), Kind: k}
	}
	return schema.MustNew(cols...), keyCol
}

// genRows materializes n rows whose key column follows the
// distribution; non-key columns are uniform junk of their kind.
func genRows(rng *rand.Rand, sch *schema.Schema, keyCol, n int, dist string, keyKind value.Kind, keyRange int64) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		r := make(tuple.Tuple, sch.NumCols())
		for c := range r {
			if c == keyCol {
				r[c] = genKey(rng, dist, keyKind, keyRange)
			} else {
				r[c] = genValue(rng, sch.Kind(c))
			}
		}
		rows[i] = r
	}
	return rows
}

func genKey(rng *rand.Rand, dist string, kind value.Kind, keyRange int64) value.Value {
	var k int64
	switch dist {
	case "uniform":
		k = rng.Int63n(keyRange)
	case "skewed":
		// Cubing the uniform variate piles most keys onto a few hot
		// values — the radix partitions skew hard, so budgeted runs
		// demote the hot partition and recurse.
		f := rng.Float64()
		k = int64(f * f * f * float64(keyRange))
	case "dup":
		k = 7 // every key identical: the chunked-fallback distribution
	case "nullheavy":
		if rng.Float64() < 0.6 {
			return value.Value{} // NULL: must never match anything
		}
		k = rng.Int63n(keyRange)
	case "sparse":
		k = rng.Int63() // almost no matches
	case "zipfdisjoint":
		// Steeper than "skewed": the fourth power piles most keys onto a
		// handful of hot values, so budgeted runs demote skewed
		// partitions whose Bloom filters then carry few distinct keys.
		f := rng.Float64()
		k = int64(f * f * f * f * float64(keyRange))
	case "zipfdisjointR":
		if rng.Float64() < 0.2 {
			// The overlap slice: matches that a broken Bloom skip would
			// lose (a false negative is a correctness bug, not a perf one).
			f := rng.Float64()
			k = int64(f * f * f * f * float64(keyRange))
		} else {
			k = keyRange + 1 + rng.Int63n(4*keyRange+1) // disjoint range
		}
	case "dupstr":
		// Three hot string keys: every build partition is a long duplicate
		// chain, and repeated headers exercise interned-string sharing.
		return value.NewString("hot-duplicate-key-" + strconv.Itoa(rng.Intn(3)))
	case "rdfskew":
		k = int64(rand.NewZipf(rng, 1.3, 1, uint64(keyRange)).Uint64())
	case "weird":
		switch rng.Intn(6) {
		case 0:
			return value.NewFloat(math.NaN()) // NaN == NaN under Compare
		case 1:
			return value.NewFloat(math.Inf(1))
		case 2:
			return value.NewFloat(math.Inf(-1))
		case 3:
			return value.NewFloat(math.Copysign(0, -1)) // -0.0 == +0.0
		case 4:
			return value.NewFloat(0)
		default:
			return value.NewFloat(float64(rng.Int63n(keyRange)))
		}
	}
	switch kind {
	case value.Int:
		return value.NewInt(k)
	case value.Float:
		return value.NewFloat(float64(k) / 2)
	case value.String:
		return value.NewString("k" + strconv.FormatInt(k, 10))
	case value.Date:
		return value.NewDate(k)
	default:
		return value.NewInt(k)
	}
}

func genValue(rng *rand.Rand, kind value.Kind) value.Value {
	if rng.Intn(12) == 0 {
		return value.Value{} // sprinkle NULLs through payload columns too
	}
	switch kind {
	case value.Int:
		return value.NewInt(rng.Int63n(10000))
	case value.Float:
		return value.NewFloat(rng.NormFloat64() * 100)
	case value.String:
		return value.NewString(randString(rng))
	case value.Date:
		return value.NewDate(rng.Int63n(40000))
	case value.Bool:
		return value.NewBool(rng.Intn(2) == 0)
	default:
		return value.Value{}
	}
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func rowsMemBytes(rows []tuple.Tuple) int64 {
	n := int64(0)
	for _, r := range rows {
		n += int64(r.MemBytes())
	}
	return n
}

// diffRows compares two row multisets, returning a descriptive error on
// the first divergence.
func diffRows(label string, got, want []tuple.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, oracle %d", label, len(got), len(want))
	}
	exec.SortRows(got)
	exec.SortRows(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s: row %d arity %d, oracle %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				return fmt.Errorf("%s: row %d col %d = %v, oracle %v", label, i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

// estRows applies the case's injected estimate error to a true build
// cardinality. 0 factor means "no estimate" (the joins fall back to
// their fixed default fan-out).
func (c Case) estRows(n int) int {
	if c.EstFactor <= 0 {
		return 0
	}
	v := int(float64(n) * c.EstFactor)
	if v < 1 {
		v = 1
	}
	return v
}

// RunCentralized checks every centralized join path of a case against
// the oracle: JoinOp in both build orientations under the case's budget
// (nil budget = the untouched fast path; non-nil exercises the spilling
// hybrid hash join — role reversal, Bloom-filtered spill writes, the
// columnar second pass and the estimate-steered fan-out), fed plain and
// through a selection-vector filter.
func RunCentralized(c Case) error {
	oracle := exec.NestedLoopJoin(c.Left, c.Right, c.LCol, c.RCol)

	type variant struct {
		name         string
		build, probe []tuple.Tuple
		bCol, pCol   int
		opts         exec.JoinOptions
	}
	leftOpts := exec.JoinOptions{BuildRowsEst: c.estRows(len(c.Left))}
	variants := []variant{
		{"build-left", c.Left, c.Right, c.LCol, c.RCol, leftOpts},
		{"build-right", c.Right, c.Left, c.RCol, c.LCol,
			exec.JoinOptions{BuildIsRight: true, BuildRowsEst: c.estRows(len(c.Right))}},
	}
	for _, v := range variants {
		store := dfs.NewStore(2, 1, c.Seed)
		ex := exec.New(store, &cluster.Meter{})
		ex.Mem = exec.NewMemBudget(c.Budget)
		op := ex.JoinOp(exec.NewSource(v.build), v.bCol, exec.NewSource(v.probe), v.pCol, v.opts)
		got, err := exec.Collect(op)
		if err != nil {
			return fmt.Errorf("%s: JoinOp[%s]: %w", c, v.name, err)
		}
		if err := diffRows("JoinOp["+v.name+"]", got, oracle); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		if used := ex.Mem.Used(); used != 0 {
			return fmt.Errorf("%s: JoinOp[%s] leaked %d budget bytes", c, v.name, used)
		}
	}

	// Selection-vector run: both inputs pass a Where whose survivors
	// reach the join only through a sparse (possibly empty) selection
	// vector over the columnar batches. The oracle filters with the same
	// predicate, so NULL and non-finite comparison semantics cancel out.
	if pivot, ok := keyPivot(c.Left, c.LCol); ok {
		lPreds := []predicate.Predicate{predicate.NewCmp(c.LCol, predicate.LT, pivot)}
		rPreds := []predicate.Predicate{predicate.NewCmp(c.RCol, predicate.LT, pivot)}
		fOracle := exec.NestedLoopJoin(
			filterRows(c.Left, lPreds), filterRows(c.Right, rPreds), c.LCol, c.RCol)
		store := dfs.NewStore(2, 1, c.Seed)
		ex := exec.New(store, &cluster.Meter{})
		ex.Mem = exec.NewMemBudget(c.Budget)
		op := ex.JoinOp(
			exec.Where(exec.NewSource(c.Left), lPreds), c.LCol,
			exec.Where(exec.NewSource(c.Right), rPreds), c.RCol, leftOpts)
		got, err := exec.Collect(op)
		if err != nil {
			return fmt.Errorf("%s: JoinOp[selfilter]: %w", c, err)
		}
		if err := diffRows("JoinOp[selfilter]", got, fOracle); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		if used := ex.Mem.Used(); used != 0 {
			return fmt.Errorf("%s: JoinOp[selfilter] leaked %d budget bytes", c, used)
		}
	}
	return nil
}

// keyPivot picks a deterministic filter literal from the left side's
// key column — the first non-NULL key at or past the midpoint — so
// Where-filtered runs keep a data-dependent, usually sparse subset.
func keyPivot(rows []tuple.Tuple, col int) (value.Value, bool) {
	for off := range rows {
		r := rows[(len(rows)/2+off)%len(rows)]
		if !r[col].IsNull() {
			return r[col], true
		}
	}
	return value.Value{}, false
}

// filterRows is the oracle-side mirror of exec.Where.
func filterRows(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

// RunDistributed loads the case's relations as tables over an
// nodes-wide store and runs the full planner-compiled distributed DAG —
// per-node scans, exchanges, per-node budget shares, and whichever join
// strategy the cost model picks — against the oracle. It runs the plan
// again as a forced shuffle join, the path whose probe exchange drops
// the rows each node's build-key filter rejects.
func RunDistributed(c Case, nodes int) error {
	oracle := exec.NestedLoopJoin(c.Left, c.Right, c.LCol, c.RCol)
	store := dfs.NewStore(nodes, 2, c.Seed)
	joinAttr := -1
	if c.CoPart {
		joinAttr = c.LCol
	}
	lt, err := core.Load(store, "dleft", c.LSch, c.Left, core.LoadOptions{
		RowsPerBlock: 64, Seed: c.Seed, JoinAttr: joinAttr,
	})
	if err != nil {
		return fmt.Errorf("%s: load left: %w", c, err)
	}
	rJoinAttr := -1
	if c.CoPart {
		rJoinAttr = c.RCol
	}
	rt, err := core.Load(store, "dright", c.RSch, c.Right, core.LoadOptions{
		RowsPerBlock: 64, Seed: c.Seed + 1, JoinAttr: rJoinAttr,
	})
	if err != nil {
		return fmt.Errorf("%s: load right: %w", c, err)
	}
	plan := &planner.Join{
		Left:  &planner.Scan{Table: lt},
		Right: &planner.Scan{Table: rt},
		LCol:  c.LCol, RCol: c.RCol,
	}
	for _, shuffle := range []bool{false, true} {
		label := fmt.Sprintf("distributed[nodes=%d,shuffle=%v]", nodes, shuffle)
		ex := exec.New(store, &cluster.Meter{})
		ex.Mem = exec.NewMemBudget(c.Budget)
		ex.EnableNodes(1)
		runner := planner.NewRunner(ex, cluster.Default())
		runner.EstScale = c.EstFactor // inject the case's estimate error into every compiled join
		runner.ForceShuffle = shuffle
		comp, err := runner.Compile(plan)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", c, label, err)
		}
		got, err := exec.Collect(comp.Root)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", c, label, err)
		}
		if err := diffRows(label, got, oracle); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		ex.Nodes().Flush()
		if used := ex.Mem.Used(); used != 0 {
			return fmt.Errorf("%s: %s leaked %d budget bytes", c, label, used)
		}
		// An empty side builds (it has the fewer rows), and its filter
		// rejects every probe row before the row crosses an exchange.
		if shuffle && (len(c.Left) == 0 || len(c.Right) == 0) {
			if m := ex.Meter.Snapshot(); m.ExchLocalRows+m.ExchRemoteRows != 0 {
				return fmt.Errorf("%s: %s: %.0f rows crossed an exchange beside an empty side", c, label, m.ExchLocalRows+m.ExchRemoteRows)
			}
		}
	}
	return nil
}
