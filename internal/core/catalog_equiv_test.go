package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/exec/difftest"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/value"
)

// wantRef is one block the reference walk selects.
type wantRef struct {
	bucket block.ID
	count  int
	path   string
	node   dfs.NodeID
	meta   block.Meta
}

// referenceRefs is the block walk the catalog replaced, kept as its
// oracle: Tree.Lookup's candidates, each one's detached block.Meta read
// from the block the store holds (a bucket is live exactly when its
// block is stored), block.Meta.MaybeMatches over the folded predicate
// ranges, and the primary replica looked up per block.
func referenceRefs(t *testing.T, tbl *core.Table, treeIdx int, preds []predicate.Predicate) []wantRef {
	t.Helper()
	ranges := predicate.ColumnRanges(preds)
	var out []wantRef
	for _, b := range tbl.Trees[treeIdx].Tree.Lookup(preds) {
		path := tbl.BlockPath(treeIdx, b)
		if !tbl.Store().Exists(path) {
			continue
		}
		blk, _, err := tbl.Store().GetBlock(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		meta := block.MetaOf(b, blk)
		if !meta.MaybeMatches(ranges) {
			continue
		}
		out = append(out, wantRef{bucket: b, count: meta.Count, path: path,
			node: tbl.Store().Placement(path)[0], meta: meta})
	}
	return out
}

// nodeFor is the per-block placement rule SplitRefs replaced: the
// primary replica the store reports, or a hash of the path for a path
// the store does not hold.
func nodeFor(store *dfs.Store, path string, n int) int {
	if p := store.Placement(path); len(p) > 0 {
		return int(p[0]) % n
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	return int(h.Sum64() % uint64(n))
}

// sameRange reports bit-identical ranges: equal flags and bounds whose
// encodings match, so a NaN bound equals itself and -0 differs from +0.
func sameRange(a, b predicate.Range) bool {
	enc := func(r predicate.Range) []byte {
		return r.Hi.AppendBinary(r.Lo.AppendBinary(nil))
	}
	return a.HasLo == b.HasLo && a.HasHi == b.HasHi && a.LoOpen == b.LoOpen && a.HiOpen == b.HiOpen &&
		bytes.Equal(enc(a), enc(b))
}

// checkCatalog asserts that every live tree of tbl resolves preds to the
// reference walk's refs — bucket, count, path, node and the zone range
// on every column — that the tree's totals match its stored blocks, and
// that SplitRefs places every ref where the per-block rule would.
func checkCatalog(t *testing.T, label string, tbl *core.Table, preds []predicate.Predicate) {
	t.Helper()
	store := tbl.Store()
	var all []core.BlockRef
	for _, ti := range tbl.LiveTrees() {
		got := tbl.Refs(ti, preds)
		want := referenceRefs(t, tbl, ti, preds)
		if len(got) != len(want) {
			t.Fatalf("%s: %s tree %d %v: %d refs, reference %d", label, tbl.Name, ti, preds, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Table != tbl.Name || g.TreeIdx != ti || g.Bucket != w.bucket || g.Count != w.count ||
				g.Path != w.path || g.Node != w.node {
				t.Fatalf("%s: %s tree %d %v ref %d = %+v, reference %+v", label, tbl.Name, ti, preds, i, g, w)
			}
			for col := 0; col < tbl.Schema.NumCols(); col++ {
				if gr, wr := g.JoinRange(col), w.meta.Range(col); !sameRange(gr, wr) {
					t.Fatalf("%s: %s bucket %d col %d zone %v, reference %v", label, tbl.Name, w.bucket, col, gr, wr)
				}
			}
		}
		all = append(all, got...)
		stored, rows := 0, 0
		prefix := tbl.BlockPath(ti, 0)
		for _, p := range store.List(strings.TrimSuffix(prefix, "0")) {
			blk, _, err := store.GetBlock(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			stored++
			rows += blk.Len()
		}
		if tr := tbl.Trees[ti]; tr.Blocks() != stored || tr.Rows() != rows || len(tr.LiveBuckets()) != stored {
			t.Fatalf("%s: %s tree %d catalog holds %d blocks, %d rows; store %d, %d",
				label, tbl.Name, ti, tr.Blocks(), tr.Rows(), stored, rows)
		}
	}
	if got := tbl.AllRefs(preds); len(got) != len(all) {
		t.Fatalf("%s: %s AllRefs %d refs, per-tree %d", label, tbl.Name, len(got), len(all))
	}
	n := store.NumNodes()
	for node, refs := range exec.New(store, &cluster.Meter{}).EnableNodes(0).SplitRefs(all) {
		for _, r := range refs {
			if want := nodeFor(store, r.Path, n); node != want {
				t.Fatalf("%s: %s split %s onto node %d of %d, rule %d", label, tbl.Name, r.Path, node, n, want)
			}
		}
	}
}

// probePreds draws one extra conjunction over sch that crosses the
// comparison rules: NULL constants, constants of another kind than the
// column (Int against Date, Float against Int), NaN, ±0 and the empty
// IN list.
func probePreds(rng *rand.Rand, ncols int) []predicate.Predicate {
	consts := []value.Value{{}, value.NewInt(3), value.NewInt(9000), value.NewDate(9000),
		value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0.5),
		value.NewString("m")}
	ops := []predicate.Op{predicate.EQ, predicate.NE, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
	var out []predicate.Predicate
	for n := 1 + rng.Intn(2); n > 0; n-- {
		col := rng.Intn(ncols)
		if rng.Intn(8) == 0 {
			out = append(out, predicate.NewIn(col, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]))
			continue
		}
		out = append(out, predicate.NewCmp(col, ops[rng.Intn(len(ops))], consts[rng.Intn(len(consts))]))
	}
	if rng.Intn(10) == 0 {
		out = append(out, predicate.NewIn(rng.Intn(ncols)))
	}
	return out
}

// checkQuery runs checkCatalog for every table of a bound query, under
// its own predicates, none, and one probe conjunction.
func checkQuery(t *testing.T, label string, b *query.Bound, rng *rand.Rand) {
	t.Helper()
	for _, bt := range b.Tables {
		checkCatalog(t, label, bt.Table, bt.Preds)
		checkCatalog(t, label, bt.Table, nil)
		checkCatalog(t, label, bt.Table, probePreds(rng, bt.Table.Schema.NumCols()))
	}
}

// shiftSchedule is the benchmark's join-attribute shift, 2:1
// heavy:light: q5,q5,q3 on the order key, then q8,q8,q14 on the part
// key, cycles times with perPhase queries per phase.
func shiftSchedule(data *tpch.Dataset, seed int64, cycles, perPhase int) []query.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []query.Spec
	for phase := 0; phase < 2*cycles; phase++ {
		tpls := []tpch.Template{tpch.Q5, tpch.Q5, tpch.Q3}
		if phase%2 == 1 {
			tpls = []tpch.Template{tpch.Q8, tpch.Q8, tpch.Q14}
		}
		for i := 0; i < perPhase; i++ {
			specs = append(specs, tpch.NewInstance(tpls[i%len(tpls)], data, rng).Spec())
		}
	}
	return specs
}

// replayTPCH runs the schedule through a session on 2 simulated nodes
// and checks the catalog against the reference walk after every query
// (the layout that query compiled against). It returns the number of
// joins per strategy.
func replayTPCH(t *testing.T, cfg session.Config, specs []query.Spec) map[string]int {
	t.Helper()
	store := dfs.NewStore(2, 2, 42)
	data := tpch.Generate(0.01, 42)
	tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: 128, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cat := tables.Catalog()
	s := session.New(store, cfg)
	rng := rand.New(rand.NewSource(5))
	strategies := map[string]int{}
	for i, sp := range specs {
		q, err := session.FromSpec(cat, sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Stream(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Report.Joins {
			strategies[j.Strategy]++
		}
		checkQuery(t, fmt.Sprintf("query %d (%s)", i, sp.Label), q.Spec, rng)
	}
	return strategies
}

// TestCatalogMatchesReferenceShift replays the adaptive shift schedule —
// trees created, buckets migrated, two-tree layouts and combination
// joins — against the reference walk at every query.
func TestCatalogMatchesReferenceShift(t *testing.T) {
	data := tpch.Generate(0.01, 42)
	specs := shiftSchedule(data, 42, 2, 6)
	strategies := replayTPCH(t, session.Config{
		Optimizer:   optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 5, Seed: 42},
		Distributed: true, BudgetBlocks: 8,
	}, specs)
	if strategies[planner.StratCombination] == 0 || strategies[planner.StratHyper] == 0 {
		t.Fatalf("schedule never reached a two-tree layout: strategies %v", strategies)
	}
}

// TestCatalogMatchesReferenceStatic replays the shift schedule without
// adaptation under a 3 MB operator budget (the spilling static layout).
func TestCatalogMatchesReferenceStatic(t *testing.T) {
	data := tpch.Generate(0.01, 42)
	replayTPCH(t, session.Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: 5, Seed: 42},
		MemBudget: 3_000_000, SpillDir: t.TempDir(), Distributed: true, BudgetBlocks: 8,
	}, shiftSchedule(data, 43, 1, 6))
}

// TestCatalogMatchesReferenceMixed replays difftest's NULL-, NaN- and
// mixed-kind-bearing tables through their shifting streams — smooth
// moves, full rewrites and Amoeba swaps — checking the catalog at every
// query.
func TestCatalogMatchesReferenceMixed(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := difftest.GenMixedCase(seed)
		store, cat, err := w.Load(1 + 3*int(seed%2))
		if err != nil {
			t.Fatal(err)
		}
		s := session.New(store, session.Config{Optimizer: w.Optimizer, Distributed: store.NumNodes() > 1})
		rng := rand.New(rand.NewSource(seed))
		for i, spec := range w.Stream {
			q, err := session.FromSpec(cat, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Stream(q, nil); err != nil {
				t.Fatal(err)
			}
			label := "seed " + strconv.FormatInt(seed, 10) + " query " + strconv.Itoa(i)
			checkQuery(t, label, q.Spec, rng)
			for k := 0; k < 4; k++ {
				for _, st := range w.Tables {
					tbl := cat[st.Name]
					checkCatalog(t, label, tbl, probePreds(rng, tbl.Schema.NumCols()))
				}
			}
		}
	}
}

// TestSetPlacementMovesSplit checks that overriding a block's placement
// moves it to its new node in SplitRefs.
func TestSetPlacementMovesSplit(t *testing.T) {
	store := dfs.NewStore(3, 1, 9)
	data := tpch.Generate(0.002, 9)
	tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables.Orders
	refs := tbl.AllRefs(nil)
	if len(refs) < 3 {
		t.Fatalf("only %d blocks", len(refs))
	}
	moved := map[string]int{}
	for i, ref := range refs[:3] {
		to := (int(ref.Node) + 1 + i%2) % 3
		if err := tbl.SetPlacement(ref, []dfs.NodeID{dfs.NodeID(to)}); err != nil {
			t.Fatal(err)
		}
		moved[ref.Path] = to
	}
	ns := exec.New(store, &cluster.Meter{}).EnableNodes(0)
	for node, part := range ns.SplitRefs(tbl.AllRefs(nil)) {
		for _, r := range part {
			if to, ok := moved[r.Path]; ok && node != to {
				t.Fatalf("%s split onto node %d after moving it to %d", r.Path, node, to)
			}
			if node != nodeFor(store, r.Path, 3) {
				t.Fatalf("%s split onto node %d, store places it on %d", r.Path, node, nodeFor(store, r.Path, 3))
			}
		}
	}
	checkCatalog(t, "after SetPlacement", tbl, nil)
	if err := tbl.SetPlacement(refs[0], nil); err == nil {
		t.Fatal("SetPlacement with no replica succeeded")
	}
}
