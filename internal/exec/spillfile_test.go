// The run-file layout: one file per spill stream, partitions as extents
// inside it, files removed by the last partition that needs them.
package exec

import (
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// countFS is the production spillFS plus a ledger of the files created
// and removed through it.
type countFS struct {
	mu      sync.Mutex
	created []string
	removed map[string]bool
}

func (c *countFS) Create(name string) (io.WriteCloser, error) {
	c.mu.Lock()
	c.created = append(c.created, filepath.Base(name))
	c.mu.Unlock()
	return osSpillFS{}.Create(name)
}

func (c *countFS) Open(name string) (spillReader, error) { return osSpillFS{}.Open(name) }

func (c *countFS) Remove(name string) error {
	c.mu.Lock()
	if c.removed == nil {
		c.removed = map[string]bool{}
	}
	c.removed[filepath.Base(name)] = true
	c.mu.Unlock()
	return osSpillFS{}.Remove(name)
}

// TestSpillOneFilePerStream: a spilling join that demotes many
// partitions and re-partitions in its second pass writes at most one
// first-pass file per build worker, per probe worker and for the
// leftover flush, and one file per re-partitioning split — and removes
// every one of them itself, through the last partition that read it,
// before Close sweeps the directory.
func TestSpillOneFilePerStream(t *testing.T) {
	build := keyedRows(1200, func(i int) int64 { return int64(i % 300) })
	probe := keyedRows(1200, func(i int) int64 { return int64(i % 300) })
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(build) / 64)
	ex.SpillDir = t.TempDir()
	cfs := &countFS{}
	ex.fs = cfs
	op := ex.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{})
	hj := op.(*hashJoinOp)
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(build, probe, 0, 0))

	demoted := 0
	for p := 0; p < hj.nParts; p++ {
		if hj.spill.isSpilled(p) {
			demoted++
		}
	}
	firstPass, splits := 0, 0
	for _, name := range cfs.created {
		if strings.HasPrefix(name, "sub-") {
			splits++
		} else {
			firstPass++
		}
	}
	w := hj.e.workers()
	reparts := hj.spill.repartitions.Load()
	t.Logf("%d demoted partitions, %d workers: %d first-pass files, %d re-partitionings, %d split files",
		demoted, w, firstPass, reparts, splits)
	if demoted < 3 {
		t.Fatalf("only %d partitions demoted: the layout is not exercised", demoted)
	}
	if firstPass > 2*w+1 {
		t.Errorf("%d first-pass files, want at most 2×%d workers + 1", firstPass, w)
	}
	if reparts == 0 {
		t.Fatal("the second pass never re-partitioned")
	}
	if int64(splits) > 2*reparts {
		t.Errorf("%d split files for %d re-partitionings, want at most one per side", splits, reparts)
	}
	for _, name := range cfs.created {
		if !cfs.removed[name] {
			t.Errorf("%s was left for Close to sweep: no partition released it last", name)
		}
	}
	if ents, err := os.ReadDir(ex.SpillDir); err != nil || len(ents) != 0 {
		t.Errorf("spill dir holds %d entries after Close (%v)", len(ents), err)
	}
}

// runRows reads every row of runs back, in write order.
func runRows(t *testing.T, fs spillFS, runs []*runFile) []tuple.Tuple {
	t.Helper()
	var rows []tuple.Tuple
	if err := eachFrame(fs, runs, func(frame []byte) error {
		fr, _, err := tuple.DecodeFrame(frame)
		rows = append(rows, fr...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// spillTestRows draws rows of (int key with NULLs, string, float column
// that turns mixed-kind in some batches), the shapes the frame codec
// treats differently.
func spillTestRows(rng *rand.Rand, n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	mixed := rng.Intn(4) == 0
	for i := range rows {
		k := value.NewInt(rng.Int63n(1000))
		if rng.Intn(20) == 0 {
			k = value.Value{}
		}
		f := value.NewFloat(rng.NormFloat64())
		switch {
		case rng.Intn(50) == 0:
			f = value.NewFloat(math.NaN())
		case mixed && rng.Intn(3) == 0:
			f = value.NewInt(rng.Int63n(9))
		}
		rows[i] = tuple.Tuple{k, value.NewString(strings.Repeat("x", rng.Intn(12))), f}
	}
	return rows
}

// TestRunWriterExtentsProperty: frames of many partitions, written
// interleaved into one file by gathers, range copies and single rows,
// read back per partition exactly in write order with exact totals; the
// file survives until its last partition is released.
func TestRunWriterExtentsProperty(t *testing.T) {
	ex := New(dfs.NewStore(1, 1, 1), &cluster.Meter{})
	ex.SpillDir = t.TempDir()
	sp := newJoinSpill(&hashJoinOp{e: ex, nParts: 1})
	defer sp.cleanup()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		parts := 2 + rng.Intn(14)
		w := sp.newRunWriter("prop", parts)
		want := make([][]tuple.Tuple, parts)
		for step := 0; step < 60; step++ {
			rows := spillTestRows(rng, 1+rng.Intn(700))
			cols := tuple.NewColumns(3)
			cols.AppendRows(rows)
			var err error
			switch rng.Intn(3) {
			case 0: // scatter the batch over every partition, one gather each
				lists := make([][]int32, parts)
				for i := range rows {
					p := rng.Intn(parts)
					lists[p] = append(lists[p], int32(i))
					want[p] = append(want[p], rows[i])
				}
				rb := cols.MemBytesRows(nil)
				for p, l := range lists {
					if err == nil && len(l) > 0 {
						err = w.appendCols(p, cols, l, sumRowBytes(rb, l))
					}
				}
			case 1: // the whole batch into one partition
				p := rng.Intn(parts)
				want[p] = append(want[p], rows...)
				err = w.appendCols(p, cols, nil, sumRowBytes(cols.MemBytesRows(nil), nil))
			default: // one row at a time
				rb := cols.MemBytesRows(nil)
				for i, r := range rows {
					p := rng.Intn(parts)
					want[p] = append(want[p], r)
					if err == nil {
						err = w.appendCols(p, cols, []int32{int32(i)}, int64(rb[i]))
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		runs, err := w.finish()
		if err != nil {
			t.Fatal(err)
		}
		// The partitions' frames really interleave in the file.
		owner := map[int64]int{}
		for p, rf := range runs {
			if rf != nil {
				for _, e := range rf.ext {
					owner[e.off] = p
				}
			}
		}
		switches, prev := 0, -1
		for off := int64(0); ; {
			p, ok := owner[off]
			if !ok {
				break
			}
			if p != prev {
				switches++
			}
			prev = p
			for _, e := range runs[p].ext {
				if e.off == off {
					off += e.n
					break
				}
			}
		}
		if switches <= parts {
			t.Fatalf("trial %d: %d partition switches across the file: frames did not interleave", trial, switches)
		}
		var file *spillFile
		for p, rf := range runs {
			if (rf == nil) != (len(want[p]) == 0) {
				t.Fatalf("trial %d: partition %d has run %v but %d rows", trial, p, rf, len(want[p]))
			}
			if rf == nil {
				continue
			}
			if file == nil {
				file = rf.file
			} else if rf.file != file {
				t.Fatalf("trial %d: one writer produced two files", trial)
			}
			got := runRows(t, sp.fs(), []*runFile{rf})
			if int64(len(got)) != rf.rows || len(got) != len(want[p]) {
				t.Fatalf("trial %d partition %d: read %d rows, run says %d, wrote %d", trial, p, len(got), rf.rows, len(want[p]))
			}
			disk := int64(0)
			for _, e := range rf.ext {
				disk += e.n
			}
			if disk != rf.diskBytes || rowsBytes(want[p]) != rf.memBytes {
				t.Fatalf("trial %d partition %d: totals disk %d/%d mem %d/%d", trial, p, rf.diskBytes, disk, rf.memBytes, rowsBytes(want[p]))
			}
			for i := range got {
				if string(got[i].AppendBinary(nil)) != string(want[p][i].AppendBinary(nil)) {
					t.Fatalf("trial %d partition %d row %d: got %v, want %v", trial, p, i, got[i], want[p][i])
				}
			}
		}
		// Release every run but the last: the file must stay for it.
		var last *runFile
		for _, rf := range runs {
			if rf == nil {
				continue
			}
			if last != nil {
				last.release(sp.fs())
				last.release(sp.fs()) // idempotent: a second release drops nothing
			}
			last = rf
		}
		if _, err := os.Stat(file.path); err != nil {
			t.Fatalf("trial %d: file gone before its last partition finished: %v", trial, err)
		}
		runRows(t, sp.fs(), []*runFile{last})
		last.release(sp.fs())
		if _, err := os.Stat(file.path); !os.IsNotExist(err) {
			t.Fatalf("trial %d: file outlived its last partition (%v)", trial, err)
		}
	}
}
