// The spilling half of the hybrid hash join: run-file I/O, partition
// demotion under memory pressure, and the second pass.
//
// The in-memory radix join (coljoin.go) assumes every build-side
// partition fits in RAM; one oversized build OOMs the whole session.
// When the executor carries a MemBudget, the join becomes a classic
// Grace/hybrid hash join instead: build rows charge the budget as they
// accumulate, and on pressure an in-memory partition is demoted to disk
// — its rows (and every later build or probe row that hashes to it)
// stream into columnar run files under a temp dir, while the surviving
// partitions keep the untouched in-memory fast path. After the
// in-memory probe drains, the second pass joins each spilled partition
// from its run files: load-and-probe when either side fits the budget
// (role reversal picks the smaller one), recursive re-partitioning on
// the next radix bit range when neither does, and a chunked build
// (multiple passes over the larger side) as the terminal fallback for
// partitions hash bits cannot split — the all-duplicate-key case. A
// second-pass load is joined on columns like a hyper-join group: its
// frames decode into one store, sealed as a one-partition table, and
// the other side's frames stream through the first pass's probe.
//
// Three defenses keep the join robust against bad inputs and bad
// estimates (the trade-offs literature on dynamic hybrid hash joins):
//
//   - victim selection is scored, not largest-first: a partition's
//     demotion score is bytes × distinctFrac, where distinctFrac is
//     estimated from a 64-bit sample bitmap of its key hashes.
//     Duplicate-heavy partitions — whose probe rows hit densely and
//     would all pay the spill round-trip — score low and stay in
//     memory; wide sparse partitions go to disk first.
//   - the join's one build-key filter (bloom.go) covers the spilled
//     build keys too: the build's spill streams keep the key hash of
//     every row they write, and the filter built at seal takes them
//     with the resident ones. The kept hashes charge the budget 8 B a
//     row as they are written, so pressure counts them, and the
//     filter's words are charged from seal until the join closes.
//     Probe rows of a demoted partition whose key the filter rejects
//     skip the spill write entirely (a negative is exact — the filter
//     is complete before the probe starts). Skips are metered as
//     SpillSkippedRows.
//   - the second pass re-checks both sides' run sizes before loading
//     and swaps roles when the probe run is the smaller one, so a
//     mis-estimated build side degrades into one extra comparison, not
//     a recursive re-partitioning storm.
//
// Run files are few. Each spill stream — one side of one build or probe
// worker, the post-build leftover flush, one side of a re-partitioning
// split — writes every partition it spills into one file, and a
// partition's run is the list of byte ranges (extents) it owns there.
// The file goes when the last partition reading it is released.
package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
)

const (
	// spillEncBytes sizes a run writer's first encode buffer: a frame
	// of spillFrameRows rows of about 128 bytes each.
	spillEncBytes = spillFrameRows * 128
	// spillFrameRows is the pending-row count at which a partition
	// flushes a run-file frame: big enough that frame headers and reads
	// amortize, small enough that the writer's pending copies stay a
	// rounding error against the budget. A batch gather can carry a frame
	// past it.
	spillFrameRows = 256
	// spillSubBits is the radix width of one recursive re-partitioning
	// level: each level splits a spilled partition 16 ways on the next
	// 4 hash bits below the radix bits the first pass consumed.
	spillSubBits = 4
	spillFanout  = 1 << spillSubBits
	// maxSpillDepth bounds recursive re-partitioning. A partition still
	// over budget after this many 16-way splits is dominated by
	// duplicate keys no hash bits can separate; it falls back to the
	// chunked build.
	maxSpillDepth = 6
)

// errSpillClosed unwinds the second pass when the operator is closed
// mid-stream; it is swallowed at the top (early close is not an error).
var errSpillClosed = errors.New("exec: spill join closed")

// runFile is one partition's share of a spill file: the extents its
// frames occupy, in write order, plus the row/byte totals the second
// pass sizes loads with. memBytes is the in-memory footprint of the rows
// (tuple.MemBytes), the number budget decisions use; diskBytes is the
// encoded size, the number the spill meter charges. Each runFile holds
// one reference on its file until release.
type runFile struct {
	file      *spillFile
	ext       []extent
	rows      int64
	diskBytes int64
	memBytes  int64
}

// extent is one frame's byte range in a spill file: the uvarint length
// prefix and the frame behind it.
type extent struct{ off, n int64 }

// spillFile is one file on disk, shared by the runFiles of every
// partition its writer wrote. refs counts the runFiles not yet released;
// the last release removes the file, so a file lives exactly as long as
// some partition still needs it.
type spillFile struct {
	path string
	refs atomic.Int32
}

// release drops rf's reference on its file, removing the file when it
// was the last one. Idempotent: a released runFile holds nothing.
func (rf *runFile) release(fs spillFS) {
	f := rf.file
	if f == nil {
		return
	}
	rf.file = nil
	if f.refs.Add(-1) == 0 {
		fs.Remove(f.path)
	}
}

func releaseRuns(fs spillFS, runs []*runFile) {
	for _, rf := range runs {
		if rf != nil {
			rf.release(fs)
		}
	}
}

// runWriter writes the frames of many partitions into one spill file.
// Each partition buffers its rows in a pending column store and, once
// spillFrameRows are pending, flushes them as one length-prefixed
// columnar frame (Columns.AppendFrame) through the writer's single
// bufio layer, recording the frame's extent. The file is created at the
// first flush, so a writer that never spills touches no filesystem. Rows
// are copied in at append, so callers may recycle their batches right
// after. The pending stores and the bufio layer are recycled storage,
// handed back at finish. The first I/O error is sticky: every later
// call returns it.
type runWriter struct {
	sp    *joinSpill
	name  string // file-name stem; a sequence number makes it unique
	f     io.WriteCloser
	bw    *bufio.Writer
	file  *spillFile
	off   int64 // bytes written so far, buffered ones included
	enc   []byte
	parts []runPart
	err   error
}

// runPart is one partition's pending rows and its extents so far.
type runPart struct {
	pend *tuple.Columns
	run  runFile
}

func (sp *joinSpill) newRunWriter(name string, nparts int) *runWriter {
	return &runWriter{sp: sp, name: name, parts: make([]runPart, nparts)}
}

// appendCols buffers src's physical rows idxs — every row when idxs is
// nil — for partition p, in order: one gather per column. mem is the
// rows' MemBytes total.
func (w *runWriter) appendCols(p int, src *tuple.Columns, idxs []int32, mem int64) error {
	if w.err != nil {
		return w.err
	}
	pp := &w.parts[p]
	k := len(idxs)
	if idxs == nil {
		k = src.FullLen()
	}
	if pp.pend != nil {
		k += pp.pend.FullLen()
	}
	pp.pend = recycle.GrowStore(pp.pend, src, k)
	pend := pp.pend
	if idxs == nil {
		pend.AppendRange(src, 0, src.FullLen())
	} else {
		pend.AppendGather(src, idxs)
	}
	return w.added(p, mem)
}

// added accounts rows just buffered for partition p, flushing them once
// a frame's worth is pending.
func (w *runWriter) added(p int, mem int64) error {
	pp := &w.parts[p]
	pp.run.memBytes += mem
	if pp.pend.FullLen() >= spillFrameRows {
		return w.flush(p)
	}
	return nil
}

// flush writes partition p's pending rows as one frame.
func (w *runWriter) flush(p int) error {
	pp := &w.parts[p]
	if w.err != nil || pp.pend == nil || pp.pend.FullLen() == 0 {
		return w.err
	}
	if w.f == nil {
		if w.err = w.create(); w.err != nil {
			return w.err
		}
	}
	frame := pp.pend.AppendFrame(w.enc[:0])
	w.enc = frame[:0]
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(frame)))
	if _, w.err = w.bw.Write(hdr[:h]); w.err == nil {
		_, w.err = w.bw.Write(frame)
	}
	if w.err != nil {
		return w.err
	}
	n := int64(h + len(frame))
	pp.run.ext = append(pp.run.ext, extent{off: w.off, n: n})
	pp.run.rows += int64(pp.pend.FullLen())
	pp.run.diskBytes += n
	w.off += n
	recycle.EmptyStore(pp.pend)
	return nil
}

func (w *runWriter) create() error {
	dir, err := w.sp.tempDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.run", w.name, w.sp.fileSeq.Add(1)))
	f, err := w.sp.fs().Create(path)
	if err != nil {
		return err
	}
	w.bw = spillWriters.Get().(*bufio.Writer)
	w.bw.Reset(f)
	w.enc = recycle.Bytes.Get(spillEncBytes)
	w.f, w.file = f, &spillFile{path: path}
	return nil
}

// finish flushes every partition's tail frame and closes the file. It
// returns, indexed by partition, a runFile for each partition holding
// rows (nil elsewhere), each with a reference on the shared file. On
// error it returns no runFiles and leaves the file to the spill dir's
// removal at Close. The writer is dead afterwards.
func (w *runWriter) finish() ([]*runFile, error) {
	for p := range w.parts {
		if w.flush(p) != nil {
			break
		}
	}
	for p := range w.parts {
		recycle.PutStore(w.parts[p].pend)
		w.parts[p].pend = nil
	}
	recycle.Bytes.Put(w.enc)
	w.enc = nil
	if w.f == nil {
		return nil, w.err
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	w.bw.Reset(nil)
	spillWriters.Put(w.bw)
	w.f, w.bw = nil, nil
	if w.err != nil {
		return nil, w.err
	}
	runs := make([]*runFile, len(w.parts))
	for p := range w.parts {
		if pp := &w.parts[p]; pp.run.rows > 0 {
			rf := pp.run
			rf.file = w.file
			w.file.refs.Add(1)
			runs[p] = &rf
		}
	}
	return runs, nil
}

// eachFrame reads every frame of the given runs, run by run in extent
// (= write) order, handing fn the encoded frame. One ReadAt per frame;
// the buffer is recycled storage, reused across frames and handed back
// on return, so fn must not retain it.
func eachFrame(fs spillFS, runs []*runFile, fn func(frame []byte) error) error {
	var buf []byte
	defer func() { recycle.Bytes.Put(buf) }()
	for _, rf := range runs {
		path := rf.file.path
		r, err := fs.Open(path)
		if err != nil {
			return err
		}
		for _, e := range rf.ext {
			buf = recycle.Bytes.Fit(buf, int(e.n))
			b := buf[:e.n]
			if n, err := r.ReadAt(b, e.off); n < len(b) {
				r.Close()
				return fmt.Errorf("exec: run %s at %d: %w", path, e.off, err)
			}
			flen, h := binary.Uvarint(b)
			if h <= 0 || flen != uint64(len(b)-h) {
				r.Close()
				return fmt.Errorf("exec: run %s at %d: frame length does not match its extent", path, e.off)
			}
			if err := fn(b[h:]); err != nil {
				r.Close()
				return err
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}

// decodeRunFrame replaces dst's rows with those of one run frame.
func decodeRunFrame(dst *tuple.Columns, frame []byte) error {
	if _, err := dst.DecodeFrame(frame); err != nil {
		return fmt.Errorf("exec: spill frame: %w", err)
	}
	return nil
}

// sumRunRows totals the rows of a set of runs.
func sumRunRows(runs []*runFile) int {
	n := 0
	for _, rf := range runs {
		n += int(rf.rows)
	}
	return n
}

// sumRunBytes totals the in-memory footprint a set of runs would load
// to.
func sumRunBytes(runs []*runFile) int64 {
	n := int64(0)
	for _, rf := range runs {
		n += rf.memBytes
	}
	return n
}

// sumRowBytes totals rowBytes over idxs, or over every row when idxs is
// nil.
func sumRowBytes(rowBytes []int32, idxs []int32) int64 {
	n := int64(0)
	if idxs == nil {
		for _, b := range rowBytes {
			n += int64(b)
		}
		return n
	}
	for _, i := range idxs {
		n += int64(rowBytes[i])
	}
	return n
}

// joinSpill is the shared spill state of one budgeted hashJoinOp. All
// per-partition slices are sized to the join's dynamic fan-out
// (hashJoinOp.nParts).
type joinSpill struct {
	j *hashJoinOp

	dirOnce sync.Once
	dirErr  error
	dir     string

	// spilled marks demoted partitions; set only during the build phase,
	// frozen before the probe starts, so probe routing is consistent.
	spilled []atomic.Bool
	// partBytes tracks the in-memory bytes each partition currently
	// holds across all build workers — the victim-selection ranking and
	// the "pending eviction" correction pressure() applies.
	partBytes []atomic.Int64
	// partRows / partSample feed victim scoring: row count plus a 64-bit
	// bitmap sampling the low 6 bits of each key hash. popcount(sample)
	// saturates at 64 and estimates key diversity — a partition holding
	// one hot key sets one bit no matter how many rows it holds.
	partRows   []atomic.Int64
	partSample []atomic.Uint64

	mu        sync.Mutex // victim selection, run registries, kept hashes
	buildRuns [][]*runFile
	probeRuns [][]*runFile
	// kept holds the key hashes of every build row the build's spill
	// streams wrote, one slice per stream, for the join's filter
	// (sealFilter). Each hash charges the budget 8 bytes from when its
	// row is written until the filter is built.
	kept [][]uint64

	fileSeq      atomic.Int64
	spilledRows  atomic.Int64
	spilledBytes atomic.Int64
	skipped      atomic.Int64 // probe rows the join's filter spared from spilling
	reversals    atomic.Int64 // second-pass loads that swapped build/probe roles
	repartitions atomic.Int64 // second-pass 16-way re-partitionings (white-box test hook)
	memHeld      atomic.Int64 // net budget bytes this join has charged

	// sem gates concurrent second-pass loads: fit decisions use the full
	// operator limit (so a partition that fits never re-partitions), and
	// the semaphore keeps the SUM of simultaneous loads inside that
	// limit — full parallelism for small partitions, graceful
	// serialization when each load needs the whole budget.
	sem *byteSem
}

// byteSem is a weighted semaphore over budget bytes. Requests larger
// than the capacity clamp to it (they could never proceed otherwise),
// so a single oversized load serializes instead of deadlocking.
type byteSem struct {
	mu    sync.Mutex
	cond  *sync.Cond
	avail int64
	cap   int64
}

func newByteSem(n int64) *byteSem {
	if n < 1 {
		n = 1
	}
	s := &byteSem{avail: n, cap: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *byteSem) acquire(n int64) int64 {
	if n > s.cap {
		n = s.cap
	}
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	for s.avail < n {
		s.cond.Wait()
	}
	s.avail -= n
	s.mu.Unlock()
	return n
}

func (s *byteSem) release(n int64) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	s.cond.Broadcast()
}

func newJoinSpill(j *hashJoinOp) *joinSpill {
	n := j.nParts
	return &joinSpill{
		j:          j,
		spilled:    make([]atomic.Bool, n),
		partBytes:  make([]atomic.Int64, n),
		partRows:   make([]atomic.Int64, n),
		partSample: make([]atomic.Uint64, n),
		buildRuns:  make([][]*runFile, n),
		probeRuns:  make([][]*runFile, n),
	}
}

// fs returns the run-file filesystem (injectable for fault tests).
func (sp *joinSpill) fs() spillFS { return sp.j.e.spillFS() }

// tempDir lazily creates the join's spill directory — a join that never
// exceeds its budget touches no filesystem at all. The directory itself
// always comes from the real OS (the injected spillFS only mediates the
// run files inside it), so Close's RemoveAll guarantee survives any
// injected fault.
func (sp *joinSpill) tempDir() (string, error) {
	sp.dirOnce.Do(func() {
		sp.dir, sp.dirErr = os.MkdirTemp(sp.j.e.SpillDir, "adaptdb-join-*")
	})
	return sp.dir, sp.dirErr
}

func (sp *joinSpill) isSpilled(p int) bool { return sp.spilled[p].Load() }

func (sp *joinSpill) anySpilled() bool {
	for p := range sp.spilled {
		if sp.spilled[p].Load() {
			return true
		}
	}
	return false
}

// charge/release wrap the executor budget, tracking the join's net hold
// so Close can return whatever an error path left charged.
func (sp *joinSpill) charge(n int64) bool {
	sp.memHeld.Add(n)
	return sp.j.e.Mem.Charge(n)
}

func (sp *joinSpill) release(n int64) {
	sp.memHeld.Add(-n)
	sp.j.e.Mem.Release(n)
}

// noteBuildRow records one retained build row in partition p's
// victim-scoring stats: bytes, rows, and a sample bit keyed by the low
// 6 hash bits (the high bits picked the partition and are constant
// within it). The sample CAS is cheap — after the first 64-ish distinct
// keys the load-check short-circuits every time.
func (sp *joinSpill) noteBuildRow(p int, h uint64, n int64) {
	sp.partBytes[p].Add(n)
	sp.partRows[p].Add(1)
	bit := uint64(1) << (h & 63)
	for {
		old := sp.partSample[p].Load()
		if old&bit != 0 || sp.partSample[p].CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// victimScore ranks partition p for demotion: resident bytes scaled by
// estimated key diversity. A partition dominated by duplicate keys has
// a near-zero diversity fraction — its probe rows hit densely, so
// spilling it would round-trip the most matches through disk — while a
// wide distinct-key partition scores near its full byte size. Any
// partition with resident bytes scores > 0, so demotion always makes
// progress.
func (sp *joinSpill) victimScore(p int) float64 {
	bytes := sp.partBytes[p].Load()
	if bytes <= 0 {
		return 0
	}
	rows := sp.partRows[p].Load()
	if rows < 1 {
		rows = 1
	}
	if rows > 64 {
		rows = 64
	}
	distinct := bits.OnesCount64(sp.partSample[p].Load())
	if distinct < 1 {
		distinct = 1
	}
	return float64(bytes) * float64(distinct) / float64(rows)
}

// pressure demotes in-memory partitions, best score first, until the
// budget would fit once pending evictions land. Demotion is a flag
// flip: the bytes come back as each build worker flushes its share of
// the victim to disk (evict), so the accounting subtracts every
// already-demoted partition's still-resident bytes before deciding
// whether another victim is needed.
func (sp *joinSpill) pressure() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	mem := sp.j.e.Mem
	pending := int64(0)
	for p := range sp.spilled {
		if sp.spilled[p].Load() {
			pending += sp.partBytes[p].Load()
		}
	}
	for mem.Used()-pending > mem.Limit() {
		best, bestScore := -1, 0.0
		for p := range sp.spilled {
			if !sp.spilled[p].Load() {
				if s := sp.victimScore(p); s > bestScore {
					best, bestScore = p, s
				}
			}
		}
		if best < 0 {
			return // everything is spilled (or empty); nothing left to demote
		}
		sp.spilled[best].Store(true)
		pending += sp.partBytes[best].Load()
	}
}

// noteRun registers one partition's finished run on one side's
// registry and meters the spill I/O.
func (sp *joinSpill) noteRun(p int, probe bool, rf *runFile) {
	sp.mu.Lock()
	if probe {
		sp.probeRuns[p] = append(sp.probeRuns[p], rf)
	} else {
		sp.buildRuns[p] = append(sp.buildRuns[p], rf)
	}
	sp.mu.Unlock()
	sp.meterRun(rf)
}

func (sp *joinSpill) meterRun(rf *runFile) {
	sp.spilledRows.Add(rf.rows)
	sp.spilledBytes.Add(rf.diskBytes)
	sp.j.e.Meter.AddSpill(int(rf.rows), int(rf.diskBytes))
}

// takeRuns hands a partition's runs to the second pass, clearing the
// registries.
func (sp *joinSpill) takeRuns(p int) (build, probe []*runFile) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	build, probe = sp.buildRuns[p], sp.probeRuns[p]
	sp.buildRuns[p], sp.probeRuns[p] = nil, nil
	return build, probe
}

// cleanup removes the spill directory and returns any budget bytes an
// early close or error path left charged. Called from a failed Open or
// from Close, after every goroutine that touches the files has exited;
// a second call finds nothing left to release.
func (sp *joinSpill) cleanup() {
	if held := sp.memHeld.Swap(0); held != 0 {
		sp.j.e.Mem.Release(held)
	}
	if sp.dir != "" {
		os.RemoveAll(sp.dir)
	}
}

// partQueue collects one batch's physical rows per partition while the
// batch is routed, so each partition then takes its rows with one gather
// instead of a copy per row. Row order within a partition is routing
// order. A queue is recycled with the capacity its lists grew to:
// newPartQueue takes one from partQueues and release hands it back. Not
// safe for concurrent use.
type partQueue struct {
	lists   [][]int32 // per-partition queued physical rows of the batch
	touched []int     // partitions queued since the last flush
}

var partQueues = sync.Pool{New: func() any { return new(partQueue) }}

func newPartQueue(nparts int) *partQueue {
	q := partQueues.Get().(*partQueue)
	if cap(q.lists) < nparts {
		q.lists = append(q.lists[:cap(q.lists)], make([][]int32, nparts-cap(q.lists))...)
	}
	q.lists = q.lists[:nparts]
	return q
}

// release empties the queue and hands it back; it is dead afterwards.
func (q *partQueue) release() {
	for p := range q.lists {
		q.lists[p] = q.lists[p][:0]
	}
	q.touched = q.touched[:0]
	partQueues.Put(q)
}

// queue marks physical row i of the batch being routed for partition p.
func (q *partQueue) queue(p, i int) {
	if len(q.lists[p]) == 0 {
		q.touched = append(q.touched, p)
	}
	q.lists[p] = append(q.lists[p], int32(i))
}

// take empties partition p's queue and returns the rows it held, valid
// until p is queued again.
func (q *partQueue) take(p int) []int32 {
	list := q.lists[p]
	q.lists[p] = list[:0]
	return list
}

// flush hands every partition's queued rows to fn, in first-queued
// order, and empties the queue. Partitions emptied by take are skipped.
func (q *partQueue) flush(fn func(p int, idxs []int32)) {
	for _, p := range q.touched {
		if list := q.take(p); len(list) > 0 {
			fn(p, list)
		}
	}
	q.touched = q.touched[:0]
}

// partSpiller is one spill stream of a join — one side of one build or
// probe worker, the leftover flush, or one re-partitioning split — over
// a single runWriter, so the stream writes one file whatever the number
// of partitions it spills. Columnar rows are queued per partition while
// a batch is routed and written with one gather per partition
// (spillBatch). Not safe for concurrent use.
type partSpiller struct {
	*partQueue
	sp *joinSpill
	w  *runWriter
	// keep marks a first-pass build-side stream: it keeps the key hash
	// of every row it spills — direct writes, evictions and leftover
	// flushes alike — for the join's filter, which is what makes a
	// negative filter answer exact. Each written batch or eviction
	// charges its hashes 8 B apiece; the charge demotes nothing itself,
	// the build's next resident-row charge counts it.
	keep   bool
	hashes []uint64
	rb     []int32 // MemBytesRows scratch
}

func (sp *joinSpill) newPartSpiller(name string, nparts int, keep bool) *partSpiller {
	return &partSpiller{partQueue: newPartQueue(nparts), sp: sp, w: sp.newRunWriter(name, nparts), keep: keep}
}

// firstPassSpiller is worker id's spill stream for one side of the join.
func (sp *joinSpill) firstPassSpiller(id int, probe bool) *partSpiller {
	if probe {
		return sp.newPartSpiller(fmt.Sprintf("p-w%02d", id), sp.j.nParts, false)
	}
	return sp.newPartSpiller(fmt.Sprintf("b-w%02d", id), sp.j.nParts, true)
}

// spillBatch writes the rows queued from src, one gather per partition,
// and clears the queues. hv holds src's key hashes (read only by
// streams that keep them); rowBytes its MemBytesRows, computed here
// when nil.
func (s *partSpiller) spillBatch(src *tuple.Columns, hv []uint64, rowBytes []int32) error {
	if len(s.touched) == 0 {
		return nil
	}
	if rowBytes == nil {
		s.rb = src.MemBytesRows(idxPool.Fit(s.rb, src.FullLen()))
		rowBytes = s.rb
	}
	var err error
	kept := len(s.hashes)
	s.flush(func(p int, list []int32) {
		if err != nil {
			return
		}
		if s.keep {
			s.hashes = hashPool.Grow(s.hashes, len(s.hashes)+len(list))
			for _, i := range list {
				s.hashes = append(s.hashes, hv[i])
			}
		}
		err = s.w.appendCols(p, src, list, sumRowBytes(rowBytes, list))
	})
	if n := len(s.hashes) - kept; n > 0 {
		s.sp.charge(int64(8 * n))
	}
	return err
}

// writeBuf spills every row of a build buffer into partition p; mem is
// their MemBytes total.
func (s *partSpiller) writeBuf(p int, buf *colBuf, mem int64) error {
	if s.keep {
		s.hashes = append(hashPool.Grow(s.hashes, len(s.hashes)+len(buf.hashes)), buf.hashes...)
		s.sp.charge(int64(8 * len(buf.hashes)))
	}
	return s.w.appendCols(p, buf.store, nil, mem)
}

// finish ends the stream: its writer's runs (runWriter.finish), and its
// queue and scratch go back to the pools.
func (s *partSpiller) finish() ([]*runFile, error) {
	s.partQueue.release()
	idxPool.Put(s.rb)
	s.partQueue, s.rb = nil, nil
	return s.w.finish()
}

// finishFirstPass seals a first-pass stream, registering each
// partition's run on the given side, and hands the hashes the stream
// kept to the join.
func (sp *joinSpill) finishFirstPass(s *partSpiller, probe bool) error {
	runs, err := s.finish()
	for p, rf := range runs {
		if rf != nil {
			sp.noteRun(p, probe, rf)
		}
	}
	if len(s.hashes) > 0 {
		sp.mu.Lock()
		sp.kept = append(sp.kept, s.hashes)
		sp.mu.Unlock()
		s.hashes = nil
	}
	return err
}

// takeKept hands the kept build hashes to the join's filter and gives
// their bytes back to the budget. Called once the build has drained.
func (sp *joinSpill) takeKept() [][]uint64 {
	sp.mu.Lock()
	kept := sp.kept
	sp.kept = nil
	sp.mu.Unlock()
	for _, hs := range kept {
		sp.release(int64(8 * len(hs)))
	}
	return kept
}

// evict flushes one build worker's resident rows for a freshly demoted
// partition into its run — one range copy into the writer's column
// buffer, no row materialized — and returns their bytes to the budget.
// bytes is the worker's per-partition byte ledger, which is exactly the
// rows' MemBytes total.
func (s *partSpiller) evict(p int, buf *colBuf, bytes *int64) error {
	if buf.len() == 0 && *bytes == 0 {
		return nil
	}
	if buf.len() > 0 {
		if err := s.writeBuf(p, buf, *bytes); err != nil {
			return err
		}
	}
	buf.reset()
	s.sp.partBytes[p].Add(-*bytes)
	s.sp.release(*bytes)
	*bytes = 0
	return nil
}

// flushLeftovers writes every build worker's still-resident rows of
// demoted partitions into one final run file. A partition can be
// demoted AFTER a worker has already drained its input and run its final
// sweep (another worker's charge triggered the demotion), so per-worker
// eviction alone can strand rows in a buffer the seal phase would then
// drop. Leftovers are only complete once every worker has exited; this
// runs between the build drain and table sealing, with the spilled set
// frozen.
func (sp *joinSpill) flushLeftovers(bufs [][]colBuf) error {
	var spw *partSpiller
	var err error
	var rb []int32
	for p := 0; p < sp.j.nParts && err == nil; p++ {
		if !sp.spilled[p].Load() {
			continue
		}
		if freed := sp.partBytes[p].Swap(0); freed != 0 {
			sp.release(freed)
		}
		for wi := range bufs {
			buf := &bufs[wi][p]
			if buf.len() == 0 {
				continue
			}
			if spw == nil {
				spw = sp.newPartSpiller("l", sp.j.nParts, true)
			}
			rb = buf.store.MemBytesRows(rb)
			if err = spw.writeBuf(p, buf, sumRowBytes(rb, nil)); err != nil {
				break
			}
			buf.reset()
		}
	}
	if spw != nil {
		if ferr := sp.finishFirstPass(spw, false); err == nil {
			err = ferr
		}
	}
	return err
}

// ---- second pass ----

// secondPass joins every spilled partition from its run files, emitting
// result batches through the operator's pool. It is the pool's then
// hook: it runs after all probe workers have exited and before the
// stream ends.
// Spilled partitions are independent, so the pass runs them on the full
// worker pool — each worker owns its partitions end to end (load,
// recurse, probe, emit), matching the first pass's partition
// parallelism instead of serializing the spilled tail. Each worker
// fills one pending output batch across every frame and partition it
// joins and emits the remainder before it exits.
func (j *hashJoinOp) secondPass() {
	sp := j.spill
	// The first-pass tables are done: their probe stream has drained.
	// Hand the table back and return every partition's budget bytes —
	// that headroom funds the second-pass loads.
	j.dropBuild()
	for p := 0; p < j.nParts; p++ {
		if held := sp.partBytes[p].Swap(0); held != 0 {
			sp.release(held)
		}
	}
	var parts []int
	for p := 0; p < j.nParts; p++ {
		if sp.isSpilled(p) {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return
	}
	// Fit decisions use the full operator limit; the byte semaphore
	// keeps the sum of concurrent loads inside it.
	limit := j.e.Mem.Limit()
	sp.sem = newByteSem(limit)
	// The probe workers claimed no task, so the pool's task counter
	// hands out the spilled partitions.
	j.p.run(min(j.e.workers(), len(parts)), func(int) {
		st := newColProbe(nil, &j.p)
		defer st.done()
		for {
			k, ok := j.p.claim(len(parts))
			if !ok {
				return
			}
			build, probe := sp.takeRuns(parts[k])
			if err := j.joinSpilled(st, 0, build, probe, limit); err != nil {
				releaseRuns(sp.fs(), build)
				releaseRuns(sp.fs(), probe)
				if err != errSpillClosed {
					j.p.fail(err)
				}
				return
			}
		}
	})
}

// joinSpilled joins one spilled partition, gathering its matches into
// the second-pass worker's pending output st. The load side is whichever
// side's run files are smaller — when the probe runs undercut the build
// runs, roles reverse (the classic dynamic-HHJ defense against a
// mis-estimated build side) and the build rows stream instead:
//
//   - the smaller side fits the budget → load it into one table and
//     stream the other side through it;
//   - neither side fits but hash bits remain → re-partition both sides
//     16 ways on the next bit range and recurse (reversal is re-decided
//     per sub-partition from actual sub-run sizes);
//   - bits exhausted or maxSpillDepth reached → chunked build: the
//     terminal fallback that loads budget-sized chunks of the smaller
//     side and re-streams the larger side per chunk (correct for any
//     key distribution, including a single key repeated millions of
//     times).
func (j *hashJoinOp) joinSpilled(st *colProbe, level int, build, probe []*runFile, limit int64) error {
	fs := j.spill.fs()
	// Checked per (sub-)partition: the recursion re-enters here, so a
	// cancelled query abandons a spilled join between loads rather than
	// finishing a multi-level repartition.
	if cerr := j.e.ctxErr(); cerr != nil {
		releaseRuns(fs, build)
		releaseRuns(fs, probe)
		return cerr
	}
	if len(build) == 0 || len(probe) == 0 {
		releaseRuns(fs, build)
		releaseRuns(fs, probe)
		return nil
	}
	load, stream := build, probe
	loadCol, streamCol := j.bCol, j.pCol
	reversed := false
	if sumRunBytes(probe) < sumRunBytes(build) {
		load, stream = probe, build
		loadCol, streamCol = j.pCol, j.bCol
		reversed = true
	}
	shift := 64 - j.radixBits - spillSubBits*(level+1)
	switch {
	case sumRunBytes(load) <= limit:
		if reversed {
			j.spill.reversals.Add(1)
		}
		return j.loadAndProbe(st, load, loadCol, stream, streamCol, reversed)
	case level >= maxSpillDepth || shift < 0:
		if reversed {
			j.spill.reversals.Add(1)
		}
		return j.chunkedJoin(st, load, loadCol, stream, streamCol, reversed, limit)
	default:
		return j.repartition(st, level, shift, build, probe, limit)
	}
}

// loadAndProbe is the happy second-pass path: the load side fits, so
// the partition joins exactly like a first-pass partition — one table,
// one probe stream. reversed marks the table as holding probe-side rows
// (role reversal), which only flips the emit orientation. The runs know
// their row count, so the load's recycled store never regrows.
func (j *hashJoinOp) loadAndProbe(st *colProbe, load []*runFile, loadCol int, stream []*runFile, streamCol int, reversed bool) error {
	fs := j.spill.fs()
	defer releaseRuns(fs, load)
	defer releaseRuns(fs, stream)
	if sem := j.spill.sem; sem != nil {
		granted := sem.acquire(sumRunBytes(load))
		defer sem.release(granted)
	}
	var store *tuple.Columns
	frame := getFrame()
	defer putFrame(frame)
	var rb []int32
	defer func() { idxPool.Put(rb) }()
	held := int64(0)
	defer func() { j.spill.release(held) }()
	rows := sumRunRows(load)
	err := eachFrame(fs, load, func(b []byte) error {
		if err := decodeRunFrame(frame, b); err != nil {
			return err
		}
		rb = frame.MemBytesRows(idxPool.Fit(rb, frame.FullLen()))
		n := sumRowBytes(rb, nil)
		held += n
		j.spill.charge(n)
		store = appendRows(store, frame, 0, frame.FullLen(), rows)
		return nil
	})
	if err != nil {
		recycle.PutStore(store)
		return err
	}
	return j.probeLoaded(st, store, loadCol, stream, streamCol, reversed, frame)
}

// appendRows appends src's physical rows [from, to) to dst, a recycled
// store taken on first use to hold at least want rows, and grown
// through the pools when it must.
func appendRows(dst, src *tuple.Columns, from, to, want int) *tuple.Columns {
	if from >= to {
		return dst
	}
	n := to - from
	if dst != nil {
		n += dst.FullLen()
	}
	dst = recycle.GrowStore(dst, src, max(n, want))
	dst.AppendRange(src, from, to)
	return dst
}

// probeLoaded joins a loaded store — rows of one side keyed on loadCol —
// against every frame of the stream runs: the store is hashed once and
// sealed as a one-partition table, and each stream frame, decoded into
// the scratch sc, goes through the first pass's probe. Matches
// are gathered into the worker's pending output st in j's column
// order — a reversed load holds probe-side rows, so the view flips
// BuildIsRight — and leave through j's stream as that batch fills. The
// table takes the store over and hands it back on return; the caller
// returns its budget bytes.
func (j *hashJoinOp) probeLoaded(st *colProbe, store *tuple.Columns, loadCol int, stream []*runFile, streamCol int, reversed bool, sc *tuple.Columns) error {
	if store == nil {
		return nil
	}
	v := onePartJoin(j.e, loadCol, streamCol, j.opts.BuildIsRight != reversed)
	v.sealOne(store, store.Hash64Column(loadCol, hashPool.Get(store.FullLen())))
	st.j = v
	defer func() {
		v.dropBuild()
		st.j, st.cols = nil, nil
	}()
	return eachFrame(j.spill.fs(), stream, func(b []byte) error {
		if err := decodeRunFrame(sc, b); err != nil {
			return err
		}
		v.probeColsBatch(sc, st, nil, nil)
		// Pairs index the decoded frame: gather them before the next one
		// overwrites it.
		st.flush()
		if !st.ok {
			return errSpillClosed
		}
		return nil
	})
}

// repartition splits both sides of an oversized partition on the next
// spillSubBits hash bits and recurses per sub-partition. Each side's
// split writes one file holding all 16 sub-runs and releases its parent
// runs once written; a file goes when its last sub-run is joined, so
// peak disk stays ~2× the spilled data regardless of depth.
func (j *hashJoinOp) repartition(st *colProbe, level, shift int, build, probe []*runFile, limit int64) error {
	fs := j.spill.fs()
	j.spill.repartitions.Add(1)
	subBuild, err := j.split(level, shift, build, j.bCol)
	if err != nil {
		releaseRuns(fs, probe)
		return err
	}
	subProbe, err := j.split(level, shift, probe, j.pCol)
	if err != nil {
		releaseRuns(fs, subBuild)
		return err
	}
	for i := 0; i < spillFanout; i++ {
		if err := j.joinSpilled(st, level+1, runsOf(subBuild[i]), runsOf(subProbe[i]), limit); err != nil {
			releaseRuns(fs, subBuild[i+1:])
			releaseRuns(fs, subProbe[i+1:])
			return err
		}
	}
	return nil
}

// split re-partitions one side's runs 16 ways on the hash bits at shift,
// reading each frame into columns and gathering every sub-partition's
// rows into one new file. It releases the parent runs and returns the
// sub-runs indexed by sub-partition (nil where empty).
func (j *hashJoinOp) split(level, shift int, runs []*runFile, col int) ([]*runFile, error) {
	sp := j.spill
	defer releaseRuns(sp.fs(), runs)
	spw := sp.newPartSpiller(fmt.Sprintf("sub-l%d", level+1), spillFanout, false)
	cols := getFrame()
	defer putFrame(cols)
	var hv []uint64
	defer func() { hashPool.Put(hv) }()
	err := eachFrame(sp.fs(), runs, func(frame []byte) error {
		if err := decodeRunFrame(cols, frame); err != nil {
			return err
		}
		if cols.FullLen() == 0 {
			return nil
		}
		hv = cols.Hash64Column(col, hashPool.Fit(hv, cols.FullLen()))
		for i, h := range hv {
			spw.queue(int((h>>uint(shift))&(spillFanout-1)), i)
		}
		return spw.spillBatch(cols, nil, nil)
	})
	sub, ferr := spw.finish()
	if err == nil {
		err = ferr
	}
	if err != nil {
		releaseRuns(sp.fs(), sub)
		return nil, err
	}
	for _, rf := range sub {
		if rf != nil {
			sp.meterRun(rf)
		}
	}
	return sub, nil
}

// runsOf wraps one optional run as a run list.
func runsOf(rf *runFile) []*runFile {
	if rf == nil {
		return nil
	}
	return []*runFile{rf}
}

// chunkedJoin is the terminal fallback: the load side streams in
// budget-sized chunks, and every chunk re-streams the entire other
// side. Each load row lands in exactly one chunk, so the output
// multiset is exactly the join — only the streamed side's I/O
// multiplies, which is the price of a key distribution hashing cannot
// split. Role reversal applies here too: the chunks come from the
// smaller side, so the re-streaming multiplier hits the side where it
// costs least.
func (j *hashJoinOp) chunkedJoin(st *colProbe, load []*runFile, loadCol int, stream []*runFile, streamCol int, reversed bool, limit int64) error {
	fs := j.spill.fs()
	defer releaseRuns(fs, load)
	defer releaseRuns(fs, stream)
	if sem := j.spill.sem; sem != nil {
		// Chunks grow to the full limit, so a chunked partition owns the
		// whole budget for its duration.
		granted := sem.acquire(limit)
		defer sem.release(granted)
	}
	var chunk *tuple.Columns
	frame, sc := getFrame(), getFrame()
	defer putFrame(frame)
	defer putFrame(sc)
	var rb []int32
	defer func() { idxPool.Put(rb) }()
	held := int64(0)
	probeChunk := func() error {
		err := j.probeLoaded(st, chunk, loadCol, stream, streamCol, reversed, sc)
		chunk = nil
		j.spill.release(held)
		held = 0
		return err
	}
	err := eachFrame(fs, load, func(b []byte) error {
		if err := decodeRunFrame(frame, b); err != nil {
			return err
		}
		rb = frame.MemBytesRows(idxPool.Fit(rb, frame.FullLen()))
		from := 0
		for i, n := range rb {
			held += int64(n)
			// Cut the chunk after the row on global pressure or when this
			// worker's slice of the budget fills — either way the chunk
			// shrinks, never the memory cap.
			if j.spill.charge(int64(n)) || held >= limit {
				chunk = appendRows(chunk, frame, from, i+1, 0)
				from = i + 1
				if err := probeChunk(); err != nil {
					return err
				}
			}
		}
		chunk = appendRows(chunk, frame, from, frame.FullLen(), 0)
		return nil
	})
	if err != nil {
		recycle.PutStore(chunk)
		j.spill.release(held)
		return err
	}
	return probeChunk()
}

// SpilledBytes reports the run-file bytes this join wrote (build and
// probe sides, including recursive re-partitioning), 0 for an
// unbudgeted or never-pressured join. Valid once the stream is drained;
// planner instrumentation surfaces it as OpStats.SpilledBytes.
func (j *hashJoinOp) SpilledBytes() int64 {
	if j.spill == nil {
		return 0
	}
	return j.spill.spilledBytes.Load()
}

// SpillSkippedRows reports the probe rows whose spill write the join's
// filter proved unnecessary; planner instrumentation surfaces it as
// OpStats.SpillSkippedRows.
func (j *hashJoinOp) SpillSkippedRows() int64 {
	if j.spill == nil {
		return 0
	}
	return j.spill.skipped.Load()
}

// spillReversals reports how many second-pass loads swapped build and
// probe roles (white-box test hook).
func (j *hashJoinOp) spillReversals() int64 {
	if j.spill == nil {
		return 0
	}
	return j.spill.reversals.Load()
}
