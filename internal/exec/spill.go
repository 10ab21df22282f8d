// The spilling half of the hybrid hash join: run-file I/O, partition
// demotion under memory pressure, and the second-pass probe.
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
// partitions hash bits cannot split — the all-duplicate-key case.
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
//   - each demoted partition gets a Bloom filter over its build-side
//     key hashes. Probe rows whose key cannot match skip the spill
//     write entirely (a negative is exact — every build row of a
//     demoted partition funnels through the filter before the probe
//     starts). Skips are metered as SpillSkippedRows.
//   - the second pass re-checks both sides' run sizes before loading
//     and swaps roles when the probe run is the smaller one, so a
//     mis-estimated build side degrades into one extra comparison, not
//     a recursive re-partitioning storm.
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

	"adaptdb/internal/tuple"
)

const (
	// spillFrameRows is the row granularity of run-file frames: big
	// enough that frame headers and write calls amortize, small enough
	// that the writer's pending copies stay a rounding error against the
	// budget.
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

// runFile is one finished run file: its path and the row/byte totals
// the second pass sizes loads with. memBytes is the in-memory footprint
// of the rows (tuple.MemBytes), the number budget decisions use;
// diskBytes is the encoded size, the number the spill meter charges.
type runFile struct {
	path      string
	rows      int64
	diskBytes int64
	memBytes  int64
}

// runWriter streams rows into one run file, buffering spillFrameRows
// copies and flushing them as a length-prefixed columnar frame
// (tuple.AppendFrame) through a bufio layer, so syscall count scales
// with bytes, not frames. Rows are copied into the writer's arena at
// append, so callers may hand over rows that die with their batch.
type runWriter struct {
	f     io.WriteCloser
	bw    *bufio.Writer
	path  string
	pend  []tuple.Tuple
	arena tuple.Arena
	enc   []byte
	file  runFile

	// pendCols buffers rows spilled from columnar batches: flat typed
	// copies instead of boxed tuples, encoded straight to the (column-
	// major) frame format at flush. Row and columnar rows may interleave
	// on one writer; they flush as separate frames of the same file.
	pendCols *tuple.Columns
}

func newRunWriter(fs spillFS, path string) (*runWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &runWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path, file: runFile{path: path}}, nil
}

// append buffers one row for the next frame. copyRow must be true when
// the row dies with its batch (owned rows); view rows referencing block
// storage skip the arena copy — most of the spill stream on scan-fed
// joins, which keeps the demotion path cheap.
func (w *runWriter) append(r tuple.Tuple, copyRow bool) error {
	if copyRow {
		r = w.arena.Concat(r, nil)
	}
	w.pend = append(w.pend, r)
	w.file.memBytes += int64(r.MemBytes())
	if len(w.pend) >= spillFrameRows {
		return w.flush()
	}
	return nil
}

// appendCol buffers physical row i of a columnar batch — a flat typed
// copy into the writer's column store, no boxing, no arena copy. The
// vectorized twin of append(r, true): src may be recycled right after.
func (w *runWriter) appendCol(src *tuple.Columns, i int) error {
	if w.pendCols == nil {
		w.pendCols = tuple.NewColumns(src.NumCols())
	}
	w.pendCols.AppendRowFrom(src, i)
	w.file.memBytes += int64(src.MemBytesRow(i))
	if w.pendCols.FullLen() >= spillFrameRows {
		return w.flush()
	}
	return nil
}

// writeFrame writes one encoded frame with its length prefix.
func (w *runWriter) writeFrame(frame []byte, rows int) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(frame)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	w.file.rows += int64(rows)
	w.file.diskBytes += int64(n + len(frame))
	return nil
}

func (w *runWriter) flush() error {
	if len(w.pend) > 0 {
		frame, err := tuple.AppendFrame(w.enc[:0], w.pend)
		if err != nil {
			return err
		}
		if err := w.writeFrame(frame, len(w.pend)); err != nil {
			return err
		}
		w.enc = frame[:0]
		w.pend = w.pend[:0]
	}
	if w.pendCols != nil && w.pendCols.FullLen() > 0 {
		frame := w.pendCols.AppendFrame(w.enc[:0])
		if err := w.writeFrame(frame, w.pendCols.FullLen()); err != nil {
			return err
		}
		w.enc = frame[:0]
		w.pendCols.Reset(w.pendCols.NumCols())
	}
	return nil
}

// finish flushes the tail frame and closes the file, returning its
// totals. The writer is dead afterwards.
func (w *runWriter) finish() (runFile, error) {
	ferr := w.flush()
	if ferr == nil {
		ferr = w.bw.Flush()
	} else {
		w.bw.Flush()
	}
	cerr := w.f.Close()
	if ferr != nil {
		return w.file, ferr
	}
	return w.file, cerr
}

// eachRunFrame streams every frame of the given run files through fn in
// file order. With a nil scratch, frames decode into fresh storage and
// fn may retain the rows (the second pass builds tables from them);
// with a scratch, storage is reused across frames — allocation-free
// streaming for fns that drop every row before returning (the probe
// side of a spilled-partition join).
func eachRunFrame(fs spillFS, files []runFile, sc *tuple.FrameScratch, fn func([]tuple.Tuple) error) error {
	buf := make([]byte, 0, 1<<16)
	for _, rf := range files {
		f, err := fs.Open(rf.path)
		if err != nil {
			return err
		}
		br := bufio.NewReaderSize(f, 1<<16)
		for {
			n, err := binary.ReadUvarint(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("exec: run %s: %w", rf.path, err)
			}
			if cap(buf) < int(n) {
				buf = make([]byte, n)
			}
			buf = buf[:n]
			if _, err := io.ReadFull(br, buf); err != nil {
				f.Close()
				return fmt.Errorf("exec: run %s: %w", rf.path, err)
			}
			var rows []tuple.Tuple
			if sc != nil {
				rows, _, err = sc.Decode(buf)
			} else {
				rows, _, err = tuple.DecodeFrame(buf)
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("exec: run %s: %w", rf.path, err)
			}
			if err := fn(rows); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sumRunBytes totals the in-memory footprint a set of run files would
// load to.
func sumRunBytes(files []runFile) int64 {
	n := int64(0)
	for _, f := range files {
		n += f.memBytes
	}
	return n
}

func removeRuns(fs spillFS, files []runFile) {
	for _, f := range files {
		fs.Remove(f.path)
	}
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
	// blooms[p] is the Bloom filter over partition p's build-side key
	// hashes, created before the spilled flag is published so any worker
	// that observes the demotion also observes the filter. Nil when
	// Bloom filtering is disabled or the partition never spilled.
	blooms []atomic.Pointer[bloomFilter]

	mu         sync.Mutex // victim selection + file registries
	buildFiles [][]runFile
	probeFiles [][]runFile

	fileSeq      atomic.Int64
	spilledRows  atomic.Int64
	spilledBytes atomic.Int64
	skipped      atomic.Int64 // probe rows the Bloom filter spared from spilling
	reversals    atomic.Int64 // second-pass loads that swapped build/probe roles
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
		blooms:     make([]atomic.Pointer[bloomFilter], n),
		buildFiles: make([][]runFile, n),
		probeFiles: make([][]runFile, n),
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

// bloomAt returns partition p's Bloom filter, nil when none exists.
func (sp *joinSpill) bloomAt(p int) *bloomFilter { return sp.blooms[p].Load() }

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

// demote publishes partition p's demotion: Bloom filter first (sized
// for the rows seen so far plus the planner's per-partition estimate,
// whichever is larger), then the spilled flag, so observers of the flag
// always see the filter.
func (sp *joinSpill) demote(p int) {
	if !sp.j.opts.DisableBloom {
		est := sp.partRows[p].Load() * 2
		if per := int64(sp.j.opts.BuildRowsEst / sp.j.nParts); per > est {
			est = per
		}
		if est < 1024 {
			est = 1024
		}
		sp.blooms[p].Store(newBloomFilter(int(est), defaultBloomFPR))
	}
	sp.spilled[p].Store(true)
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
		sp.demote(best)
		pending += sp.partBytes[best].Load()
	}
}

// noteRun registers a finished run file on one side's registry and
// meters the spill I/O.
func (sp *joinSpill) noteRun(p int, probe bool, rf runFile) {
	if rf.rows == 0 {
		sp.fs().Remove(rf.path)
		return
	}
	sp.mu.Lock()
	if probe {
		sp.probeFiles[p] = append(sp.probeFiles[p], rf)
	} else {
		sp.buildFiles[p] = append(sp.buildFiles[p], rf)
	}
	sp.mu.Unlock()
	sp.spilledRows.Add(rf.rows)
	sp.spilledBytes.Add(rf.diskBytes)
	sp.j.e.Meter.AddSpill(int(rf.rows), int(rf.diskBytes))
}

// takeFiles hands a partition's run files to the second pass, clearing
// the registries.
func (sp *joinSpill) takeFiles(p int) (build, probe []runFile) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	build, probe = sp.buildFiles[p], sp.probeFiles[p]
	sp.buildFiles[p], sp.probeFiles[p] = nil, nil
	return build, probe
}

// cleanup removes the spill directory and returns any budget bytes an
// early close or error path left charged. Called exactly once, from the
// operator's Close, after every goroutine that touches the files has
// exited.
func (sp *joinSpill) cleanup() {
	if held := sp.memHeld.Swap(0); held != 0 {
		sp.j.e.Mem.Release(held)
	}
	if sp.dir != "" {
		os.RemoveAll(sp.dir)
	}
}

// partSpiller owns one worker's lazy per-partition run writers for one
// side of the join. Not safe for concurrent use — each build/probe
// worker has its own.
type partSpiller struct {
	sp    *joinSpill
	side  string // "b" or "p"
	id    int    // worker id, part of the file name
	probe bool
	wr    []*runWriter
}

func (sp *joinSpill) newPartSpiller(id int, probe bool) *partSpiller {
	side := "b"
	if probe {
		side = "p"
	}
	return &partSpiller{sp: sp, side: side, id: id, probe: probe, wr: make([]*runWriter, sp.j.nParts)}
}

// write spills one row of partition p under its key hash. Build-side
// rows also land in the partition's Bloom filter — every spill write of
// a demoted partition's build side passes through here (direct writes,
// evictions, and leftover flushes alike), which is what makes a
// negative filter answer exact.
func (s *partSpiller) write(p int, h uint64, r tuple.Tuple, copyRow bool) error {
	w, err := s.writer(p, h)
	if err != nil {
		return err
	}
	return w.append(r, copyRow)
}

// writeCol spills physical row i of a columnar batch — same protocol as
// write (Bloom maintenance included) without materializing the row.
func (s *partSpiller) writeCol(p int, h uint64, src *tuple.Columns, i int) error {
	w, err := s.writer(p, h)
	if err != nil {
		return err
	}
	return w.appendCol(src, i)
}

// writer returns partition p's run writer, creating it on first use,
// and folds build-side hashes into the partition's Bloom filter.
func (s *partSpiller) writer(p int, h uint64) (*runWriter, error) {
	if !s.probe {
		if bf := s.sp.bloomAt(p); bf != nil {
			bf.add(h)
		}
	}
	w := s.wr[p]
	if w == nil {
		dir, err := s.sp.tempDir()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-p%02d-w%02d-%d.run", s.side, p, s.id, s.sp.fileSeq.Add(1))
		w, err = newRunWriter(s.sp.fs(), filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.wr[p] = w
	}
	return w, nil
}

// finish seals every open writer, registering its run file.
func (s *partSpiller) finish() error {
	var first error
	for p, w := range s.wr {
		if w == nil {
			continue
		}
		rf, err := w.finish()
		if err != nil && first == nil {
			first = err
		}
		s.wr[p] = nil
		if err == nil {
			s.sp.noteRun(p, s.probe, rf)
		}
	}
	return first
}

// evict flushes one build worker's resident rows for a freshly demoted
// partition into its run file — flat typed copies into the writer's
// column buffer, no row materialized — and returns their bytes to the
// budget. bytes is the worker's per-partition byte ledger.
func (s *partSpiller) evict(p int, buf *colBuf, bytes *int64) error {
	if buf.len() == 0 && *bytes == 0 {
		return nil
	}
	for k, h := range buf.hashes {
		if err := s.writeCol(p, h, buf.store, k); err != nil {
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
// demoted partitions to one final run file per partition. A partition
// can be demoted AFTER a worker has already drained its input and run
// its final sweep (another worker's charge triggered the demotion), so
// per-worker eviction alone can strand rows in a buffer the seal phase
// would then drop. Leftovers are only complete once every worker has
// exited; this runs between the build drain and table sealing, with the
// spilled set frozen.
func (sp *joinSpill) flushLeftovers(bufs [][]colBuf) error {
	var spw *partSpiller
	for p := 0; p < sp.j.nParts; p++ {
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
				// One extra spiller id past the worker range keeps file
				// names collision-free.
				spw = sp.newPartSpiller(len(bufs), false)
			}
			for k, h := range buf.hashes {
				if err := spw.writeCol(p, h, buf.store, k); err != nil {
					return err
				}
			}
			buf.reset()
		}
	}
	if spw != nil {
		return spw.finish()
	}
	return nil
}

// ---- second pass ----

// spillEmit accumulates second-pass matches into output batches. The
// second pass runs one worker per spilled partition slot; each worker
// owns its own spillEmit, so one pending batch per emitter suffices.
type spillEmit struct {
	j   *hashJoinOp
	cur *Batch
}

func (e *spillEmit) emit(b, p tuple.Tuple) error {
	if e.cur == nil {
		e.cur = NewBatch()
	}
	if e.j.opts.BuildIsRight {
		e.cur.AppendConcat(p, b)
	} else {
		e.cur.AppendConcat(b, p)
	}
	if e.cur.Full() {
		ok := e.j.send(e.cur)
		e.cur = nil
		if !ok {
			return errSpillClosed
		}
	}
	return nil
}

func (e *spillEmit) finish() {
	if e.cur == nil {
		return
	}
	if e.cur.Len() > 0 {
		e.j.send(e.cur)
	} else {
		e.cur.Release()
	}
	e.cur = nil
}

// secondPass joins every spilled partition from its run files, emitting
// result batches through the operator's normal send path. Runs after
// all probe workers have exited and before the output channel closes.
// Spilled partitions are independent, so the pass runs them on the full
// worker pool — each worker owns its partitions end to end (load,
// recurse, probe, emit via its own batches), matching the first pass's
// partition parallelism instead of serializing the spilled tail.
func (j *hashJoinOp) secondPass() {
	sp := j.spill
	// The first-pass tables are done: their probe stream has drained.
	// Drop the build store and return every partition's budget bytes —
	// that headroom funds the second-pass loads.
	j.cbuild = nil
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
	w := j.workerCount()
	if w > len(parts) {
		w = len(parts)
	}
	// Fit decisions use the full operator limit; the byte semaphore
	// keeps the sum of concurrent loads inside it.
	limit := j.e.Mem.Limit()
	sp.sem = newByteSem(limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em := &spillEmit{j: j}
			for {
				if cerr := j.e.ctxErr(); cerr != nil {
					j.fail(cerr)
				}
				k := int(next.Add(1) - 1)
				if k >= len(parts) || j.failed.Load() {
					break
				}
				build, probe := sp.takeFiles(parts[k])
				if err := j.joinSpilled(0, build, probe, em, limit); err != nil {
					removeRuns(sp.fs(), build)
					removeRuns(sp.fs(), probe)
					if err != errSpillClosed {
						j.fail(err)
					}
					break
				}
			}
			em.finish()
		}()
	}
	wg.Wait()
}

// joinSpilled joins one spilled partition. The load side is whichever
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
func (j *hashJoinOp) joinSpilled(level int, build, probe []runFile, em *spillEmit, limit int64) error {
	fs := j.spill.fs()
	// Checked per (sub-)partition: the recursion re-enters here, so a
	// cancelled query abandons a spilled join between loads rather than
	// finishing a multi-level repartition.
	if cerr := j.e.ctxErr(); cerr != nil {
		removeRuns(fs, build)
		removeRuns(fs, probe)
		return cerr
	}
	if len(build) == 0 || len(probe) == 0 {
		removeRuns(fs, build)
		removeRuns(fs, probe)
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
		return j.loadAndProbe(load, loadCol, stream, streamCol, reversed, em)
	case level >= maxSpillDepth || shift < 0:
		if reversed {
			j.spill.reversals.Add(1)
		}
		return j.chunkedJoin(load, loadCol, stream, streamCol, reversed, em, limit)
	default:
		return j.repartition(level, shift, build, probe, em, limit)
	}
}

// loadAndProbe is the happy second-pass path: the load side fits, so
// the partition joins exactly like a first-pass partition — one table,
// one probe stream. reversed marks the table as holding probe-side rows
// (role reversal), which only flips the emit orientation.
func (j *hashJoinOp) loadAndProbe(load []runFile, loadCol int, stream []runFile, streamCol int, reversed bool, em *spillEmit) error {
	fs := j.spill.fs()
	defer removeRuns(fs, load)
	defer removeRuns(fs, stream)
	if sem := j.spill.sem; sem != nil {
		granted := sem.acquire(sumRunBytes(load))
		defer sem.release(granted)
	}
	var buf joinBuf
	held := int64(0)
	defer func() { j.spill.release(held) }()
	err := eachRunFrame(fs, load, nil, func(rows []tuple.Tuple) error {
		for _, r := range rows {
			key := r[loadCol]
			buf.add(key.Hash64(), r)
			n := int64(r.MemBytes())
			held += n
			j.spill.charge(n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ht := newJoinTable(loadCol, &buf)
	var sc tuple.FrameScratch // streamed rows die per frame: reuse storage
	return eachRunFrame(fs, stream, &sc, func(rows []tuple.Tuple) error {
		for _, sr := range rows {
			key := sr[streamCol]
			it := ht.lookup(key.Hash64(), key)
			for {
				tr, ok := it.next()
				if !ok {
					break
				}
				var err error
				if reversed {
					err = em.emit(sr, tr) // table holds probe rows
				} else {
					err = em.emit(tr, sr)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// repartition splits both sides of an oversized partition on the next
// spillSubBits hash bits and recurses per sub-partition. The parent run
// files are removed as soon as the sub-runs are written, so peak disk
// stays ~2× the spilled data regardless of depth.
func (j *hashJoinOp) repartition(level, shift int, build, probe []runFile, em *spillEmit, limit int64) error {
	fs := j.spill.fs()
	split := func(files []runFile, col int) ([][]runFile, error) {
		defer removeRuns(fs, files)
		var wr [spillFanout]*runWriter
		dir, err := j.spill.tempDir()
		if err != nil {
			return nil, err
		}
		// No scratch: appended rows sit in the sub-writers' pending
		// buffers past the frame that produced them.
		err = eachRunFrame(fs, files, nil, func(rows []tuple.Tuple) error {
			for _, r := range rows {
				h := r[col].Hash64()
				i := int((h >> uint(shift)) & (spillFanout - 1))
				if wr[i] == nil {
					name := fmt.Sprintf("sub-l%d-%d.run", level+1, j.spill.fileSeq.Add(1))
					w, err := newRunWriter(fs, filepath.Join(dir, name))
					if err != nil {
						return err
					}
					wr[i] = w
				}
				// Decoded frame rows are fresh allocations; no copy.
				if err := wr[i].append(r, false); err != nil {
					return err
				}
			}
			return nil
		})
		out := make([][]runFile, spillFanout)
		for i, w := range wr {
			if w == nil {
				continue
			}
			rf, ferr := w.finish()
			if ferr != nil && err == nil {
				err = ferr
			}
			if rf.rows > 0 {
				out[i] = []runFile{rf}
				j.spill.spilledRows.Add(rf.rows)
				j.spill.spilledBytes.Add(rf.diskBytes)
				j.e.Meter.AddSpill(int(rf.rows), int(rf.diskBytes))
			} else {
				fs.Remove(rf.path)
			}
		}
		return out, err
	}
	subBuild, err := split(build, j.bCol)
	if err != nil {
		for _, f := range subBuild {
			removeRuns(fs, f)
		}
		return err
	}
	subProbe, err := split(probe, j.pCol)
	if err != nil {
		for _, f := range subBuild {
			removeRuns(fs, f)
		}
		for _, f := range subProbe {
			removeRuns(fs, f)
		}
		return err
	}
	for i := 0; i < spillFanout; i++ {
		if err := j.joinSpilled(level+1, subBuild[i], subProbe[i], em, limit); err != nil {
			for k := i + 1; k < spillFanout; k++ {
				removeRuns(fs, subBuild[k])
				removeRuns(fs, subProbe[k])
			}
			return err
		}
	}
	return nil
}

// chunkedJoin is the terminal fallback: the load side streams in
// budget-sized chunks, and every chunk re-streams the entire other
// side. Each load row lands in exactly one chunk, so the output
// multiset is exactly the join — only the streamed side's I/O
// multiplies, which is the price of a key distribution hashing cannot
// split. Role reversal applies here too: the chunks come from the
// smaller side, so the re-streaming multiplier hits the side where it
// costs least.
func (j *hashJoinOp) chunkedJoin(load []runFile, loadCol int, stream []runFile, streamCol int, reversed bool, em *spillEmit, limit int64) error {
	fs := j.spill.fs()
	defer removeRuns(fs, load)
	defer removeRuns(fs, stream)
	if sem := j.spill.sem; sem != nil {
		// Chunks grow to the full limit, so a chunked partition owns the
		// whole budget for its duration.
		granted := sem.acquire(limit)
		defer sem.release(granted)
	}
	var buf joinBuf
	held := int64(0)
	var sc tuple.FrameScratch // streamed rows die per frame: reuse storage
	probeChunk := func() error {
		if buf.n == 0 {
			return nil
		}
		ht := newJoinTable(loadCol, &buf)
		err := eachRunFrame(fs, stream, &sc, func(rows []tuple.Tuple) error {
			for _, sr := range rows {
				key := sr[streamCol]
				it := ht.lookup(key.Hash64(), key)
				for {
					tr, ok := it.next()
					if !ok {
						break
					}
					var err error
					if reversed {
						err = em.emit(sr, tr)
					} else {
						err = em.emit(tr, sr)
					}
					if err != nil {
						return err
					}
				}
			}
			return nil
		})
		buf = joinBuf{}
		j.spill.release(held)
		held = 0
		return err
	}
	err := eachRunFrame(fs, load, nil, func(rows []tuple.Tuple) error {
		for _, r := range rows {
			key := r[loadCol]
			buf.add(key.Hash64(), r)
			n := int64(r.MemBytes())
			held += n
			// Flush on global pressure or when this worker's slice of
			// the budget fills — either way the chunk shrinks, never
			// the memory cap.
			if j.spill.charge(n) || held >= limit {
				if err := probeChunk(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
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

// SpillSkippedRows reports the probe rows whose spill write the Bloom
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
