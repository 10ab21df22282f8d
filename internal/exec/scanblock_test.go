package exec

import (
	"strconv"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
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
	return &scanOp{e: ex, preds: preds, out: make(chan *Batch, 64), done: make(chan struct{})}
}

func (s *scanOp) drainOut() (rows int) {
	for {
		select {
		case b := <-s.out:
			rows += b.Len()
			b.Release()
		default:
			return rows
		}
	}
}

// TestScanBlockAllocatesNothing pins the scan's copy of a block: with
// the batch pool warm, a predicate-free scan of a numeric block — range
// copies into recycled vectors — allocates nothing per block.
func TestScanBlockAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the batch pool sheds batches under the race detector")
	}
	cols := scanBlock(700, false).Cols()
	s := blockScanner(nil)
	var scratch []int32
	scan := func() {
		scratch, _ = s.emitBlock(cols, scratch)
		if got := s.drainOut(); got != 700 {
			t.Fatalf("scan emitted %d rows, want 700", got)
		}
	}
	scan() // warm the pool: the first batches size their vectors
	if allocs := testing.AllocsPerRun(200, scan); allocs != 0 {
		t.Fatalf("predicate-free scan of a numeric block: %v allocs per block, want 0", allocs)
	}
}

// TestScanBlockFiltersThenCopies: survivors of the kernel arrive in
// block order, in batches of at most DefaultBatchSize rows, typed.
func TestScanBlockFiltersThenCopies(t *testing.T) {
	cols := scanBlock(3000, true).Cols()
	s := blockScanner([]predicate.Predicate{predicate.NewCmp(1, predicate.NE, value.NewInt(3))})
	if _, ok := s.emitBlock(cols, nil); !ok {
		t.Fatal("emitBlock reported a closed stream")
	}
	next := int64(0)
	for len(s.out) > 0 {
		b := <-s.out
		cb := b.Cols()
		if b.Len() > DefaultBatchSize || cb.Sel() != nil {
			t.Fatalf("batch: len=%d sel=%v", b.Len(), cb.Sel())
		}
		if cb.Col(0).Kind() != value.Int || cb.Col(4).Kind() != value.String {
			t.Fatalf("batch vectors lost their kinds: %v %v", cb.Col(0).Kind(), cb.Col(4).Kind())
		}
		for _, k := range cb.Col(0).Ints() {
			for next%7 == 3 {
				next++
			}
			if k != next {
				t.Fatalf("row key %d, want %d: survivors out of block order", k, next)
			}
			next++
		}
		b.Release()
	}
	if next < 2999 {
		t.Fatalf("scan stopped at key %d", next)
	}
}

// BenchmarkScanBlock is the scan layer's own number: ns per block row
// for one 1024-row block, unfiltered (range copies), half filtered
// (kernel + gathers), and with a string column along.
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
			var scratch []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch, _ = s.emitBlock(cols, scratch)
				s.drainOut()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/row")
		})
	}
}
