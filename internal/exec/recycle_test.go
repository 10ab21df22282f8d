package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// steadyAlloc runs run to warm the pools and then n times more, all
// with the collector off so that no cycle empties the pools mid-test,
// and returns the median bytes one of the last n runs allocated. A
// sync.Pool keeps one item per P where only that P can reach it, so a
// run on another P misses it and allocates until the pool holds enough
// items that one is always in reach: the warm-up grows with GOMAXPROCS,
// and the median passes over a late miss.
func steadyAlloc(n int, run func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4+2*runtime.GOMAXPROCS(0); i++ {
		run()
	}
	per := make([]uint64, n)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return per[n/2]
}

// TestRecycledJoinsAllocateLittle pins the steady state of the
// recycling pools: once a join has run a few times, running it again
// allocates under a sixteenth of its build's column bytes, for a plain
// hash join, a budgeted one that spills and joins its demoted
// partitions in a second pass, and a hyper-join's groups. Before the
// pools every run allocated its build storage afresh, a multiple of
// those bytes. The spilling join also builds its key filter, which is
// not recycled (a filtered exchange may read it after the join closes),
// so its bound adds the filter's words.
func TestRecycledJoinsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under -race; allocation totals are noise")
	}
	const buildRows = 200_000
	build := keyedRows(buildRows, func(i int) int64 { return int64(i) })
	probe := keyedRows(20_000, func(i int) int64 { return int64(i * 7 % (2 * buildRows)) })
	colBytes := uint64(buildRows * 2 * 8)

	hashEx := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	spillEx := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	spillEx.Mem = NewMemBudget(256 << 10)
	spillEx.SpillDir = t.TempDir()
	store := dfs.NewStore(2, 1, 1)
	lrows := genLineitem(buildRows, 1)
	line, err := core.Load(store, "lineitem", lineSch, lrows, core.LoadOptions{RowsPerBlock: 2000, Seed: 3, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	ord, err := core.Load(store, "orders", orderSch, genOrders(5000, 2), core.LoadOptions{RowsPerBlock: 1000, Seed: 4, JoinAttr: 0})
	if err != nil {
		t.Fatal(err)
	}
	hyperEx := New(store, &cluster.Meter{})
	plan := PlanHyper(line.Refs(0, nil), 0, ord.Refs(0, nil), 0, 8)

	var spilled *hashJoinOp
	for _, c := range []struct {
		name     string
		colBytes uint64
		run      func() (int, error)
		extra    func() uint64 // bytes a run allocates besides its build storage
	}{
		{"hash", colBytes, func() (int, error) {
			return Count(hashEx.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{}))
		}, nil},
		{"spill", colBytes, func() (int, error) {
			op := spillEx.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{})
			spilled = op.(*hashJoinOp)
			return Count(op)
		}, func() uint64 { return uint64(8 * len(spilled.filter.words)) }},
		{"hyper", uint64(len(lrows) * lineSch.NumCols() * 8), func() (int, error) {
			return Count(hyperEx.NewHyperJoinOp(plan, nil, nil, false))
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			per := steadyAlloc(9, func() {
				if n, err := c.run(); err != nil || n != want {
					t.Errorf("run joined %d rows (%v), want %d", n, err, want)
				}
			})
			bound := c.colBytes / 16
			if c.extra != nil {
				bound += c.extra()
			}
			t.Logf("%d bytes per run, %.2f%% of the build's %d column bytes; bound %d", per, 100*float64(per)/float64(c.colBytes), c.colBytes, bound)
			if per > bound {
				t.Fatalf("a warm run allocated %d bytes, over the bound of %d (1/16 of the build's %d column bytes, plus %d)", per, bound, c.colBytes, bound-c.colBytes/16)
			}
		})
	}
	if s := spillEx.Meter.Snapshot(); s.SpillRows == 0 || !spilled.hasSpilled {
		t.Fatal("the budgeted join spilled nothing, so no second pass ran")
	}
}

// BenchmarkHashJoinBuild times an unbudgeted hash join that is nearly
// all build — 100,000 two-column build rows routed, gathered, sealed
// and dropped against a 1,024-row probe — and reports its allocations,
// which the recycling pools hold to a small fixed amount once warm.
func BenchmarkHashJoinBuild(b *testing.B) {
	build := keyedRows(100_000, func(i int) int64 { return int64(i) })
	probe := keyedRows(DefaultBatchSize, func(i int) int64 { return int64(i * 97) })
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(ex.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{BuildRowsEst: len(build)})); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecyclePoisonsReturnedStorage: storage handed back to the pools
// is overwritten as it goes (this package's tests and race builds
// poison), so a view that outlives its owner reads sentinels instead
// of the rows it saw, and the next owner still gets it empty.
func TestRecyclePoisonsReturnedStorage(t *testing.T) {
	src := tuple.NewColumns(3)
	for i := 0; i < 100; i++ {
		src.AppendRow(tuple.Tuple{value.NewInt(int64(i)), value.NewFloat(float64(i)), value.NewString(fmt.Sprint(i))})
	}
	s := getStore(src, src.FullLen())
	s.AppendRange(src, 0, src.FullLen())
	view := s.View([]int{0, 1, 2}, nil)
	hs := append(hashPool.get(100), src.Hash64Column(0, nil)...)
	idx := append(idxPool.get(100), 1, 2, 3)
	putStore(s)
	hashPool.put(hs)
	idxPool.put(idx)
	if got := view.Col(0).Ints()[7]; got != poisonInt {
		t.Errorf("a view of a returned store reads int %d", got)
	}
	if got := view.Col(1).Floats()[7]; got != poisonFloat {
		t.Errorf("a view of a returned store reads float %v", got)
	}
	if got := view.Col(2).Str(7); got != poisonStr {
		t.Errorf("a view of a returned store reads string %q", got)
	}
	if hs[7] != poisonHash || idx[1] != poisonIdx {
		t.Errorf("returned vectors read hash %#x and index %d", hs[7], idx[1])
	}
	again := getStore(src, src.FullLen())
	if again.FullLen() != 0 || again.NumCols() != 3 {
		t.Fatalf("a recycled store comes back with %d rows in %d columns", again.FullLen(), again.NumCols())
	}
	again.AppendRange(src, 10, 12)
	if v := again.Value(2, 1); v.S != "11" {
		t.Errorf("a recycled store holds %v after an append", v)
	}
	if z := idxPool.zeroed(100); z[1] != 0 || z[99] != 0 {
		t.Errorf("a zeroed vector reads %d, %d", z[1], z[99])
	}
}

// oneBatchOp streams one prepared batch.
type oneBatchOp struct{ b *Batch }

func (o *oneBatchOp) Open() error  { return nil }
func (o *oneBatchOp) Close() error { return nil }
func (o *oneBatchOp) Next() (*Batch, error) {
	b := o.b
	o.b = nil
	return b, nil
}

// TestProjectMovesVectorHeaders: a projection that names no column twice
// hands on the child's own batch with its vector headers moved into the
// listed order, so no cell is copied — for a batch that owns its vectors
// and for a scan's view of a block, whose selection stays — and a list
// that repeats a column gathers into a new batch.
func TestProjectMovesVectorHeaders(t *testing.T) {
	rows := make([]tuple.Tuple, 10)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(int64(i)), value.NewString(fmt.Sprint("s", i)), value.NewFloat(float64(i) / 2)}
	}
	project := func(in *Batch, cols []int) *Batch {
		t.Helper()
		op := Project(&oneBatchOp{in}, cols)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		out, err := op.Next()
		if err != nil || out == nil {
			t.Fatalf("projection returned %v, %v", out, err)
		}
		return out
	}
	want := func(out *Batch, phys []int, cols []int) {
		t.Helper()
		got := out.Rows()
		if len(got) != len(phys) {
			t.Fatalf("projected %d rows, want %d", len(got), len(phys))
		}
		for k, i := range phys {
			for ci, c := range cols {
				if !value.Equal(got[k][ci], rows[i][c]) {
					t.Fatalf("row %d column %d is %v, want %v", k, ci, got[k][ci], rows[i][c])
				}
			}
		}
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	owned := NewColBatch(3)
	owned.AppendColRows(rows)
	floats, strs := &owned.Cols().Col(2).Floats()[0], &owned.Cols().Col(1).Strs()[0]
	out := project(owned, []int{2, 1})
	if out != owned || out.Cols().NumCols() != 2 || &out.Cols().Col(0).Floats()[0] != floats || &out.Cols().Col(1).Strs()[0] != strs {
		t.Fatal("projecting an owned batch copied cells or made a new batch")
	}
	want(out, all, []int{2, 1})
	out.Release()

	block := tuple.NewColumns(3)
	block.AppendRows(rows)
	view := aliasBatch(block, 0, block.FullLen())
	view.Cols().SetSel([]int32{1, 4, 8})
	out = project(view, []int{1, 0})
	if out != view || &out.Cols().Col(0).Strs()[0] != &block.Col(1).Strs()[0] || &out.Cols().Col(1).Ints()[0] != &block.Col(0).Ints()[0] {
		t.Fatal("projecting a block view copied cells or made a new batch")
	}
	want(out, []int{1, 4, 8}, []int{1, 0})
	out.Release()

	dup := NewColBatch(3)
	dup.AppendColRows(rows)
	dup.Cols().SetSel([]int32{2, 3})
	out = project(dup, []int{0, 2, 0})
	if out == dup || out.Cols().Sel() != nil {
		t.Fatal("a projection that repeats a column did not gather into a new batch")
	}
	want(out, []int{2, 3}, []int{0, 2, 0})
	out.Release()
}

// TestInstrumentedFilteredProbeExchange: a hash join publishes its key
// filter through an Instrument wrapper over its filtered probe exchange
// (Instrumented forwards FilterSink). The join completes, the filter
// drops the probe rows no build key matches, and the answer and the
// exchange counters equal the unwrapped join's. Without the forwarding
// the exchange's producers wait forever for a filter, so the drain runs
// under a deadline.
func TestInstrumentedFilteredProbeExchange(t *testing.T) {
	defer VerifyNoLeaks(t)
	build := keyedRows(2000, func(i int) int64 { return int64(i * 3) })
	probe := keyedRows(8000, func(i int) int64 { return int64(i) })
	const n = 2
	run := func(wrap bool) ([]tuple.Tuple, cluster.Counters) {
		t.Helper()
		ex := New(dfs.NewStore(n, 1, 1), &cluster.Meter{})
		ns := ex.EnableNodes(1)
		bx := ns.Shuffle(splitSources(build, n), 0)
		px := ns.Shuffle(splitSources(probe, n), 0)
		px.FilterProbe()
		parts := make([]Operator, n)
		for i := range parts {
			var in Operator = px.Output(i)
			if wrap {
				in = Instrument("probe-exchange", in, nil)
			}
			parts[i] = ns.At(i).JoinOp(bx.Output(i), 0, in, 0, JoinOptions{})
		}
		var got []tuple.Tuple
		var err error
		done := make(chan struct{})
		go func() {
			got, err = Collect(Gather(parts...))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("wrapped=%v: the join never published its filter; the drain hangs", wrap)
		}
		if err != nil {
			t.Fatal(err)
		}
		ns.Flush()
		return got, ex.Meter.Snapshot()
	}
	plain, pm := run(false)
	wrapped, wm := run(true)
	rowsEqualSorted(t, wrapped, plain)
	rowsEqualSorted(t, wrapped, NestedLoopJoin(build, probe, 0, 0))
	if wm.ExchFilteredRows == 0 || wm.ExchFilteredRows != pm.ExchFilteredRows {
		t.Fatalf("the filter dropped %.0f probe rows behind the wrapper, %.0f without", wm.ExchFilteredRows, pm.ExchFilteredRows)
	}
}

// TestRecycleClasses: every class a get picks holds the rows asked for,
// by at most twice as many, and storage is filed under a class it
// fills, so a get of that class finds enough.
func TestRecycleClasses(t *testing.T) {
	for n := 1; n < 1<<20; n += 1 + n/97 {
		c := recycleClass(n)
		if size := 1 << c; size < n || size >= 2*max(n, 1<<minRecycleClass) {
			t.Fatalf("%d rows take class %d of %d rows", n, c, size)
		}
		if f := fileClass(1 << c); f != c {
			t.Fatalf("class %d's own size files under class %d", c, f)
		}
		if f := fileClass(n); f >= 0 && 1<<f > n {
			t.Fatalf("capacity %d files under class %d of %d rows", n, f, 1<<f)
		}
	}
}
