// Fault injection for the spill path. A faultFS counts every run-file
// create, write, read and remove, and fails exactly the Nth one; the
// sweep drives N across the whole range a spilling join performs,
// asserting the three invariants every failure point must hold:
//
//   - injected create/write/read faults surface as errors (never silent
//     row loss); remove faults are absorbed (removal is best-effort),
//   - the MemBudget is fully released once the operator closes,
//   - no run files survive Close — the RemoveAll of last resort runs on
//     the real filesystem, so even a failing Remove leaks nothing.
package exec

import (
	"errors"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
)

var errInjected = errors.New("exec: injected spill fault")

// faultFS wraps the production spillFS, failing the Nth create, write,
// read (ReadAt) or remove operation (1-based; 0 = never). Counters are
// global across files and workers, so a sweep over [1, total] hits
// build writes, probe writes, repartition writes, and second-pass reads
// alike.
type faultFS struct {
	creates, writes, reads, removes             atomic.Int64
	failCreate, failWrite, failRead, failRemove int64
}

func (f *faultFS) Create(name string) (io.WriteCloser, error) {
	if n := f.creates.Add(1); f.failCreate != 0 && n == f.failCreate {
		return nil, errInjected
	}
	w, err := osSpillFS{}.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{fs: f, w: w}, nil
}

func (f *faultFS) Open(name string) (spillReader, error) {
	r, err := osSpillFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultReader{fs: f, r: r}, nil
}

func (f *faultFS) Remove(name string) error {
	if n := f.removes.Add(1); f.failRemove != 0 && n == f.failRemove {
		return errInjected
	}
	return osSpillFS{}.Remove(name)
}

type faultWriter struct {
	fs *faultFS
	w  io.WriteCloser
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if n := w.fs.writes.Add(1); w.fs.failWrite != 0 && n == w.fs.failWrite {
		return 0, errInjected
	}
	return w.w.Write(p)
}

func (w *faultWriter) Close() error { return w.w.Close() }

type faultReader struct {
	fs *faultFS
	r  spillReader
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	if n := r.fs.reads.Add(1); r.fs.failRead != 0 && n == r.fs.failRead {
		return 0, errInjected
	}
	return r.r.ReadAt(p, off)
}

func (r *faultReader) Close() error { return r.r.Close() }

// runFaultJoin runs the fixed fault workload — sized so the join
// spills, re-partitions recursively, and second-passes — through the
// given faultFS and checks the always-invariants: budget drained to
// zero and spill dir left empty.
func runFaultJoin(t *testing.T, ff *faultFS) ([]tuple.Tuple, error) {
	t.Helper()
	build := keyedRows(1200, func(i int) int64 { return int64(i % 300) })
	probe := keyedRows(1200, func(i int) int64 { return int64(i % 300) })
	store := dfs.NewStore(2, 1, 1)
	ex := New(store, &cluster.Meter{})
	ex.Mem = NewMemBudget(rowsBytes(build) / 64)
	ex.SpillDir = t.TempDir()
	ex.fs = ff
	got, err := Collect(ex.JoinOp(NewSource(build), 0, NewSource(probe), 0, JoinOptions{}))
	if used := ex.Mem.Used(); used != 0 {
		t.Errorf("fault run left %d budget bytes charged", used)
	}
	ents, derr := os.ReadDir(ex.SpillDir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(ents) != 0 {
		t.Errorf("fault run left %d entries under the spill dir", len(ents))
	}
	return got, err
}

// sweepPoints spreads k fault indexes across [1, total], always
// including both endpoints.
func sweepPoints(total int64, k int) []int64 {
	if total <= 0 {
		return nil
	}
	pts := map[int64]bool{1: true, total: true}
	for i := 1; i < k; i++ {
		n := 1 + total*int64(i)/int64(k)
		if n >= 1 && n <= total {
			pts[n] = true
		}
	}
	out := make([]int64, 0, len(pts))
	for n := range pts {
		out = append(out, n)
	}
	return out
}

func TestSpillFaultSweep(t *testing.T) {
	// Calibration: a fault-free run measures the op counts the sweep
	// ranges over, and pins the oracle result.
	calib := &faultFS{}
	oracle, err := runFaultJoin(t, calib)
	if err != nil {
		t.Fatal(err)
	}
	totalC, totalW, totalR, totalM := calib.creates.Load(), calib.writes.Load(), calib.reads.Load(), calib.removes.Load()
	if totalC == 0 || totalW == 0 || totalR == 0 || totalM == 0 {
		t.Fatalf("calibration run did not spill (creates=%d writes=%d reads=%d removes=%d)", totalC, totalW, totalR, totalM)
	}
	if totalM != totalC {
		t.Fatalf("a clean run removed %d of its %d files itself; the rest waited for Close", totalM, totalC)
	}

	// check validates one faulted run. Concurrency moves the op layout
	// between runs, so a chosen index may not be reached; the invariant
	// is conditional — if the fault fired, the error must surface (for
	// writes and reads), and a clean run must produce the exact join.
	check := func(t *testing.T, got []tuple.Tuple, err error, fired, wantErr bool) {
		t.Helper()
		switch {
		case err != nil && !errors.Is(err, errInjected):
			t.Fatalf("unexpected error: %v", err)
		case err != nil && !(fired && wantErr):
			t.Fatalf("injected error surfaced without firing (fired=%v wantErr=%v)", fired, wantErr)
		case err == nil && fired && wantErr:
			t.Fatal("fault fired but the join reported success")
		case err == nil:
			rowsEqualSorted(t, got, oracle)
		}
	}

	t.Run("create", func(t *testing.T) {
		for _, n := range sweepPoints(totalC, 10) {
			ff := &faultFS{failCreate: n}
			got, err := runFaultJoin(t, ff)
			check(t, got, err, ff.creates.Load() >= n, true)
		}
	})
	t.Run("write", func(t *testing.T) {
		for _, n := range sweepPoints(totalW, 10) {
			ff := &faultFS{failWrite: n}
			got, err := runFaultJoin(t, ff)
			check(t, got, err, ff.writes.Load() >= n, true)
		}
	})
	t.Run("read", func(t *testing.T) {
		for _, n := range sweepPoints(totalR, 10) {
			ff := &faultFS{failRead: n}
			got, err := runFaultJoin(t, ff)
			check(t, got, err, ff.reads.Load() >= n, true)
		}
	})
	t.Run("remove", func(t *testing.T) {
		// Remove faults must be invisible: removal is best-effort and
		// Close's RemoveAll sweeps whatever a failed Remove left behind.
		for _, n := range sweepPoints(totalM, 6) {
			ff := &faultFS{failRemove: n}
			got, err := runFaultJoin(t, ff)
			if err != nil {
				t.Fatalf("remove fault at %d surfaced: %v", n, err)
			}
			rowsEqualSorted(t, got, oracle)
		}
	})
}
