package exec

import (
	"slices"
	"strconv"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// scanBlock builds one stored block of n rows: two ints, a float, a
// date — and a string column when withStrings is set.
func scanBlock(n int, withStrings bool) *block.Block {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		r := tuple.Tuple{
			value.NewInt(int64(i)), value.NewInt(int64(i % 7)),
			value.NewFloat(float64(i) / 2), value.NewDate(int64(9000 + i%365)),
		}
		if withStrings {
			r = append(r, value.NewString("c"+strconv.Itoa(i%11)))
		}
		rows[i] = r
	}
	var blk block.Block
	blk.AppendRows(rows)
	return &blk
}

// blockScanner is a scan operator with no workers: the test calls
// emitBlock itself and releases what lands on the output channel.
func blockScanner(preds []predicate.Predicate) *scanOp {
	ex := New(dfs.NewStore(1, 1, 1), &cluster.Meter{})
	return &scanOp{e: ex, preds: preds, p: pool{e: ex, out: make(chan *Batch, 64), done: make(chan struct{})}}
}

func (s *scanOp) drainOut() (rows int) {
	for {
		select {
		case b := <-s.p.out:
			rows += b.Len()
			b.Release()
		default:
			return rows
		}
	}
}

// TestScanBlockAllocatesNothing pins the scan's view of a block: with
// the alias pool warm, neither a predicate-free nor a filtered scan of a
// numeric block allocates per block — a view re-slices the block's
// vectors, and a filtered one narrows its own recycled selection.
func TestScanBlockAllocatesNothing(t *testing.T) {
	if recycle.Race {
		t.Skip("the batch pool sheds batches under the race detector")
	}
	cols := scanBlock(700, false).Cols()
	for _, tc := range []struct {
		name  string
		preds []predicate.Predicate
		want  int
	}{
		{"predicate-free", nil, 700},
		{"filtered", []predicate.Predicate{predicate.NewCmp(1, predicate.NE, value.NewInt(3))}, 600},
	} {
		s := blockScanner(tc.preds)
		scan := func() {
			s.emitBlock(cols)
			if got := s.drainOut(); got != tc.want {
				t.Fatalf("%s scan emitted %d rows, want %d", tc.name, got, tc.want)
			}
		}
		scan() // warm the pool: the first batch sizes its selection buffer
		if allocs := testing.AllocsPerRun(200, scan); allocs != 0 {
			t.Fatalf("%s scan of a numeric block: %v allocs per block, want 0", tc.name, allocs)
		}
	}
}

// liveRows returns b's live physical row indices in order.
func liveRows(b *Batch) []int {
	out := make([]int, 0, b.Len())
	sel := b.Cols().Sel()
	for k := 0; k < b.Len(); k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		out = append(out, i)
	}
	return out
}

// sameCells fails unless got and want hold the same cells, string
// payloads included.
func sameCells(t *testing.T, what string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		for c := range want[i] {
			if g, w := got[i][c], want[i][c]; g.K != w.K || value.Compare(g, w) != 0 {
				t.Fatalf("%s: row %d col %d = %v, want %v", what, i, c, g, w)
			}
		}
	}
}

// TestScanBlockAliasesBlock: a scan batch is a capped view of its block.
// Survivors arrive in block order, at most DefaultBatchSize live rows per
// batch, typed; a chunk whose every row survives carries no selection
// and a chunk with no survivor is not sent; neither pool churn nor a
// later append to the block changes the block's rows or a held view's;
// and a view's validity bitmap is its own.
func TestScanBlockAliasesBlock(t *testing.T) {
	// Two loads leave the block's vectors spare capacity, so the append
	// below writes past the views instead of reallocating.
	blk := scanBlock(2900, true)
	blk.AppendRows(scanBlock(3000, true).Rows()[2900:])
	cols := blk.Cols()
	want := blk.Rows()

	s := blockScanner([]predicate.Predicate{predicate.NewCmp(1, predicate.NE, value.NewInt(3))})
	if !s.emitBlock(cols) {
		t.Fatal("emitBlock reported a closed stream")
	}
	next := int64(0)
	var held *Batch
	for len(s.p.out) > 0 {
		b := <-s.p.out
		cb := b.Cols()
		if b.Len() > DefaultBatchSize || cb.Sel() == nil {
			t.Fatalf("filtered batch: len=%d sel=%v", b.Len(), cb.Sel())
		}
		if cb.Col(0).Kind() != value.Int || cb.Col(4).Kind() != value.String {
			t.Fatalf("batch vectors lost their kinds: %v %v", cb.Col(0).Kind(), cb.Col(4).Kind())
		}
		for _, i := range liveRows(b) {
			for next%7 == 3 {
				next++
			}
			if k := cb.Col(0).Ints()[i]; k != next {
				t.Fatalf("row key %d, want %d: survivors out of block order", k, next)
			}
			next++
		}
		if held == nil {
			held = b
			continue
		}
		b.Release()
	}
	if next < 2999 {
		t.Fatalf("scan stopped at key %d", next)
	}
	heldRows := held.Rows()

	// A chunk that keeps every row carries no selection; one that keeps
	// none is skipped: keys [0, 1500) keep chunk 0 whole, part of chunk 1
	// and nothing of chunk 2.
	s = blockScanner([]predicate.Predicate{predicate.NewCmp(0, predicate.LT, value.NewInt(1500))})
	s.emitBlock(cols)
	if len(s.p.out) != 2 {
		t.Fatalf("scan sent %d batches, want 2 (the empty chunk skipped)", len(s.p.out))
	}
	if b := <-s.p.out; b.Len() != DefaultBatchSize || b.Cols().Sel() != nil {
		t.Fatalf("unfiltered chunk: len=%d sel=%v, want %d rows and no selection", b.Len(), b.Cols().Sel(), DefaultBatchSize)
	} else {
		b.Release()
	}
	if b := <-s.p.out; b.Len() != 1500-DefaultBatchSize || b.Cols().Sel() == nil {
		t.Fatalf("partial chunk: len=%d sel=%v", b.Len(), b.Cols().Sel())
	} else {
		b.Release()
	}

	// Churn both pools, then append to the block: released views must
	// not have handed block storage to a batch that writes, and the
	// append must land beyond every view.
	extra := scanBlock(40, true)
	for r := 0; r < 20; r++ {
		nb := NewColBatch(cols.NumCols())
		nb.AppendColRows(extra.Rows())
		nb.Cols().Reset(cols.NumCols())
		nb.AppendColRows(extra.Rows())
		nb.Release()
		s = blockScanner(nil)
		s.emitBlock(cols)
		s.drainOut()
	}
	idxs := make([]int32, 40)
	for i := range idxs {
		idxs[i] = int32(39 - i)
	}
	blk.AppendGather(extra.Cols(), idxs)
	sameCells(t, "block after churn and append", blk.Rows()[:3000], want)
	sameCells(t, "held view after churn and append", held.Rows(), heldRows)
	held.Release()

	// A view copies the validity words it covers: an append that ORs a
	// bit into the block's last word — shared with the view's last rows
	// when the length is not a multiple of 64 — leaves the view's bitmap
	// and IsValid as they were.
	nrows := make([]tuple.Tuple, 100)
	for i := range nrows {
		nrows[i] = tuple.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i))}
		if i%3 == 0 {
			nrows[i][1] = value.Value{}
		}
	}
	var nblk block.Block
	nblk.AppendRows(nrows)
	s = blockScanner(nil)
	s.emitBlock(nblk.Cols())
	nb := <-s.p.out
	defer nb.Release()
	v := nb.Cols().Col(1)
	if v.Valid() == nil || nb.Len() != 100 {
		t.Fatalf("NULL-bearing view: %d rows, bitmap %v; want 100 rows with a bitmap", nb.Len(), v.Valid())
	}
	words := append([]uint64(nil), v.Valid()...)
	for i := 0; i < 20; i++ {
		nblk.AppendRows([]tuple.Tuple{{value.NewInt(int64(100 + i)), value.NewInt(1)}})
	}
	if !slices.Equal(v.Valid(), words) {
		t.Fatalf("block append changed the view's bitmap: %x, was %x", v.Valid(), words)
	}
	for i := 0; i < 100; i++ {
		if v.IsValid(i) != (i%3 != 0) {
			t.Fatalf("view row %d: IsValid=%v after a block append", i, v.IsValid(i))
		}
	}
}

// BenchmarkScanBlock is the scan layer's own number: ns per block row
// for one 1024-row block, unfiltered (one view), half filtered (kernel
// + the view's selection), and with a string column along.
func BenchmarkScanBlock(b *testing.B) {
	half := []predicate.Predicate{predicate.NewCmp(0, predicate.LT, value.NewInt(512))}
	for _, bc := range []struct {
		name    string
		strings bool
		preds   []predicate.Predicate
	}{
		{"numeric", false, nil},
		{"numeric-filtered", false, half},
		{"strings", true, nil},
		{"strings-filtered", true, half},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cols := scanBlock(1024, bc.strings).Cols()
			s := blockScanner(bc.preds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.emitBlock(cols)
				s.drainOut()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/row")
		})
	}
}
