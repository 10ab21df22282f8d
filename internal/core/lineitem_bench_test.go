package core_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// lineitemDrain is BenchmarkMoveBucketsLineitem's setting: TPC-H
// lineitem at sf 0.01 (15 columns, ~60k rows), loaded upfront with 256
// rows per block, and an empty two-phase tree on partkey to drain it
// into in five moves of a fifth of its buckets each.
type lineitemDrain struct {
	tbl  *core.Table
	dest int
	// moves lists the source buckets of each move, in move order.
	moves [][]block.ID
}

// lineitemRows generates the table once per test binary.
var lineitemRows = sync.OnceValue(func() []tuple.Tuple { return tpch.Generate(0.01, 1).Lineitem })

// newLineitemDrain loads the table and plans the five moves. With rng
// nil they take the buckets in ID order, as the benchmark does; with an
// rng, in a random order, as smooth repartitioning picks them.
func newLineitemDrain(tb testing.TB, rng *rand.Rand) *lineitemDrain {
	tb.Helper()
	rows, sch := lineitemRows(), tpch.LineitemSchema
	depth := upfront.DepthForBlocks(len(rows), 256)
	tbl, err := core.Load(dfs.NewStore(4, 2, 1), "lineitem", sch, rows, core.LoadOptions{RowsPerBlock: 256, Seed: 1, JoinAttr: -1})
	if err != nil {
		tb.Fatal(err)
	}
	d := &lineitemDrain{tbl: tbl}
	d.dest = tbl.AddTree(twophase.Builder{Schema: sch, JoinAttr: tpch.LPartKey, JoinLevels: depth / 2, TotalDepth: depth, Seed: 6}.Build(tbl.SampleRows))
	live := tbl.Trees[0].LiveBuckets()
	if rng != nil {
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	}
	step := (len(live) + 4) / 5
	for len(live) > 0 {
		n := min(step, len(live))
		d.moves = append(d.moves, live[:n])
		live = live[n:]
	}
	return d
}

// run makes the moves.
func (d *lineitemDrain) run(tb testing.TB) {
	for _, pick := range d.moves {
		if err := d.tbl.MoveBuckets(0, d.dest, pick, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkMoveBucketsLineitem is BenchmarkMoveBuckets on the rows smooth
// repartitioning moves: lineitemDrain's five moves, buckets in ID
// order. Loading and building the tree are untimed; it reports ns and
// bytes allocated per moved row.
func BenchmarkMoveBucketsLineitem(b *testing.B) {
	b.ReportAllocs()
	var ms runtime.MemStats
	var alloc uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newLineitemDrain(b, nil)
		runtime.ReadMemStats(&ms)
		alloc -= ms.TotalAlloc
		b.StartTimer()
		d.run(b)
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc
	}
	rows := float64(b.N) * float64(len(lineitemRows()))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(alloc)/rows, "B/row")
}

// TestMoveBucketsLineitemMatchesAppendRows drains lineitem in five moves
// and holds every destination block — written by one grow to an
// extrapolated capacity and in-place gathers — to a block built by one
// AppendRows over the rows the per-row route sends it, in source order:
// the same rows in the same order, the same Min and Max per column, and
// the same zone in the tree's catalog.
func TestMoveBucketsLineitemMatchesAppendRows(t *testing.T) {
	d := newLineitemDrain(t, nil)
	tbl, store, sch := d.tbl, d.tbl.Store(), tpch.LineitemSchema
	tr := tbl.Trees[d.dest].Tree
	want := map[block.ID][]tuple.Tuple{}
	for _, pick := range d.moves {
		for _, b := range pick {
			blk, _, err := store.GetBlock(tbl.BlockPath(0, b), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range blk.Rows() {
				dest := tr.Route(r)
				want[dest] = append(want[dest], r)
			}
		}
	}
	d.run(t)
	refs := map[block.ID]core.BlockRef{}
	for _, r := range tbl.Refs(d.dest, nil) {
		refs[r.Bucket] = r
	}
	if len(refs) != len(want) {
		t.Fatalf("%d destination buckets live, want %d", len(refs), len(want))
	}
	for dest, rows := range want {
		blk, _, err := store.GetBlock(tbl.BlockPath(d.dest, dest), 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle := block.New(sch)
		oracle.AppendRows(rows)
		if !sameRows(blk.Rows(), oracle.Rows()) {
			t.Fatalf("bucket %d: rows differ from one AppendRows of the routed rows", dest)
		}
		ref := refs[dest]
		if ref.Count != oracle.Len() {
			t.Fatalf("bucket %d: catalog count %d, want %d", dest, ref.Count, oracle.Len())
		}
		for c := 0; c < sch.NumCols(); c++ {
			if !sameValue(blk.Min(c), oracle.Min(c)) || !sameValue(blk.Max(c), oracle.Max(c)) {
				t.Fatalf("bucket %d col %d: zone [%v, %v], want [%v, %v]", dest, c, blk.Min(c), blk.Max(c), oracle.Min(c), oracle.Max(c))
			}
			if got, w := ref.JoinRange(c), oracle.Range(c); got.String() != w.String() {
				t.Fatalf("bucket %d col %d: catalog zone %v, want %v", dest, c, got, w)
			}
		}
	}
}

// TestMoveBucketsLineitemAllocatesWhatItKeeps bounds what a drain
// allocates: the destination blocks, each grown at most once per move,
// and the table's reused staging set. It drains the table once into an
// orderkey tree, as the phase before a join-attribute shift leaves it,
// then measures the five moves into the partkey tree, buckets picked at
// random as smooth repartitioning picks them, against the moved rows'
// column bytes (8 per numeric cell, a 16-byte header per string cell).
// The blocks' first growth takes about 1.2× those bytes and regrowth
// about 0.45×, because a bucket's share of one move misjudges its final
// size by about a third either way; block headers and the catalog take
// the rest, 1.81× in all. The bound, 2×, fails a drain that regrows a
// destination on every append (3.9×).
func TestMoveBucketsLineitemAllocatesWhatItKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := newLineitemDrain(t, rng)
	tbl := d.tbl
	rows := lineitemRows()
	depth := upfront.DepthForBlocks(len(rows), 256)
	prev := tbl.AddTree(twophase.Builder{Schema: tpch.LineitemSchema, JoinAttr: tpch.LOrderKey, JoinLevels: depth / 2, TotalDepth: depth, Seed: 5}.Build(tbl.SampleRows))
	for _, pick := range d.moves {
		if err := tbl.MoveBuckets(0, prev, pick, nil); err != nil {
			t.Fatal(err)
		}
	}
	live := tbl.Trees[prev].LiveBuckets()
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	step := (len(live) + 4) / 5

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for len(live) > 0 {
		n := min(step, len(live))
		if err := tbl.MoveBuckets(prev, d.dest, live[:n], nil); err != nil {
			t.Fatal(err)
		}
		live = live[n:]
	}
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - before

	rowBytes := 0
	for c := 0; c < tpch.LineitemSchema.NumCols(); c++ {
		if tpch.LineitemSchema.Kind(c) == value.String {
			rowBytes += 16
		} else {
			rowBytes += 8
		}
	}
	moved := uint64(len(rows) * rowBytes)
	t.Logf("drain allocated %d B for %d B of columns (%.2f×)", alloc, moved, float64(alloc)/float64(moved))
	if float64(alloc) > 2*float64(moved) {
		t.Fatalf("drain allocated %d B, over 2× the %d B of column data it moved", alloc, moved)
	}
}

// TestMoveBucketsLineitemDeterministic drains lineitem into the partkey
// tree, buckets picked at random, then rewrites that tree whole
// (ReplaceTreeData) on orderkey, once at GOMAXPROCS 1 and once at 8.
// Both migrations route and write on one goroutine per store node, so
// the schedulers interleave them differently; every destination block
// (row for row, cell for cell), its zone map and its catalog entry
// (path, node, row count, zone) must come out the same.
func TestMoveBucketsLineitemDeterministic(t *testing.T) {
	run := func(procs int) (drained, rewritten []blockSnapshot) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := newLineitemDrain(t, rand.New(rand.NewSource(11)))
		d.run(t)
		drained = snapshotTree(t, d.tbl, d.dest)
		depth := upfront.DepthForBlocks(len(lineitemRows()), 256)
		nt := twophase.Builder{Schema: tpch.LineitemSchema, JoinAttr: tpch.LOrderKey, JoinLevels: depth / 2, TotalDepth: depth, Seed: 5}.Build(d.tbl.SampleRows)
		if err := d.tbl.ReplaceTreeData(d.dest, nt, nil); err != nil {
			t.Fatal(err)
		}
		return drained, snapshotTree(t, d.tbl, d.dest)
	}
	drained1, rewritten1 := run(1)
	drained8, rewritten8 := run(8)
	compareSnapshots(t, "drain", drained1, drained8)
	compareSnapshots(t, "rewrite", rewritten1, rewritten8)
}

// blockSnapshot is one live bucket of a tree as the store and the
// catalog hold it.
type blockSnapshot struct {
	ref      core.BlockRef
	rows     []tuple.Tuple
	min, max []value.Value
}

// snapshotTree records every live bucket of tree idx, in bucket order.
func snapshotTree(t *testing.T, tbl *core.Table, idx int) []blockSnapshot {
	t.Helper()
	var out []blockSnapshot
	for _, ref := range tbl.Refs(idx, nil) {
		blk, _, err := tbl.Store().GetBlock(ref.Path, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := blockSnapshot{ref: ref, rows: blk.Rows()}
		for c := 0; c < tbl.Schema.NumCols(); c++ {
			s.min = append(s.min, blk.Min(c))
			s.max = append(s.max, blk.Max(c))
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		t.Fatalf("tree %d holds no block", idx)
	}
	return out
}

func compareSnapshots(t *testing.T, what string, a, b []blockSnapshot) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d blocks at GOMAXPROCS 1, %d at 8", what, len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i].ref, b[i].ref
		if ra.Bucket != rb.Bucket || ra.Path != rb.Path || ra.Node != rb.Node || ra.Count != rb.Count {
			t.Fatalf("%s: catalog entry %d differs: bucket %d %s on node %d, %d rows against bucket %d %s on node %d, %d rows",
				what, i, ra.Bucket, ra.Path, ra.Node, ra.Count, rb.Bucket, rb.Path, rb.Node, rb.Count)
		}
		if !sameRows(a[i].rows, b[i].rows) {
			t.Fatalf("%s: block %s holds different rows", what, ra.Path)
		}
		for c := range a[i].min {
			if !sameValue(a[i].min[c], b[i].min[c]) || !sameValue(a[i].max[c], b[i].max[c]) {
				t.Fatalf("%s: block %s col %d: zone [%v, %v] against [%v, %v]", what, ra.Path, c, a[i].min[c], a[i].max[c], b[i].min[c], b[i].max[c])
			}
			if za, zb := ra.JoinRange(c), rb.JoinRange(c); za.String() != zb.String() {
				t.Fatalf("%s: block %s col %d: catalog zone %v against %v", what, ra.Path, c, za, zb)
			}
		}
	}
}

// TestBlockViewSurvivesInPlaceAppend pins what makes in-place
// migration writes safe for scans: a view taken with AliasRange before
// an append into the block's reserved capacity still reads its own
// rows afterwards, and appending to the view reallocates instead of
// writing into the block.
func TestBlockViewSurvivesInPlaceAppend(t *testing.T) {
	rows := lineitemRows()[:200]
	sch := tpch.LineitemSchema
	blk := block.New(sch)
	blk.AppendRows(rows[:128])
	blk.Grow(256)
	var view tuple.Columns
	view.AliasRange(blk.Cols(), 0, 128)
	before := blk.Rows()

	src := tuple.NewColumns(sch.NumCols())
	src.AppendRows(rows[128:])
	idxs := make([]int32, src.FullLen())
	for i := range idxs {
		idxs[i] = int32(i)
	}
	capBefore := blk.Cols().Cap()
	blk.AppendGather(src, idxs)
	if got := blk.Cols().Cap(); got != capBefore {
		t.Fatalf("append within capacity reallocated: cap %d -> %d", capBefore, got)
	}
	if view.FullLen() != 128 || !sameRows(columnsRows(&view), before) {
		t.Fatal("view changed under an in-place append")
	}
	after := blk.Rows()
	view.AppendGather(src, idxs[:10])
	view.AppendRange(src, 20, 30)
	if !sameRows(blk.Rows(), after) {
		t.Fatal("appending to a view wrote into the block")
	}
	if !sameRows(columnsRows(&view)[:128], before) {
		t.Fatal("appending to a view lost its rows")
	}
}

// columnsRows boxes every physical row of c.
func columnsRows(c *tuple.Columns) []tuple.Tuple {
	out := make([]tuple.Tuple, c.FullLen())
	for i := range out {
		out[i] = c.RowTo(nil, i)
	}
	return out
}

func sameRows(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !sameValue(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

// sameValue is bit equality of two cells (a NaN equals itself).
func sameValue(a, b value.Value) bool {
	return string(a.AppendBinary(nil)) == string(b.AppendBinary(nil))
}
