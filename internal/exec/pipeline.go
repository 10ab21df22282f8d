// Batched, pipelined execution: the Operator/Batch data plane.
//
// Operators stream fixed-capacity, columnar Batches through
// Open/Next/Close instead of materializing a []tuple.Tuple at every
// boundary: scans read column-major blocks on a bounded worker pool,
// filter their vectors and copy the survivors into batches; filters
// narrow a batch's selection in place; joins build a hash table from
// their build input and then stream probe batches through it (the
// build and probe bodies live in coljoin.go, the spilling half in
// spill.go). Rows enter only through NewSource and leave only through
// Batch.Rows. Drain is the one run loop; Collect and Count are its
// materializing and counting forms.
package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/hyperjoin"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// DefaultBatchSize is the row capacity of pipeline batches. 1024 rows
// keeps a batch of pointers well inside L2 while amortizing channel and
// interface-call overhead across the chunk.
const DefaultBatchSize = 1024

// Batch is a fixed-capacity chunk of rows flowing between operators,
// held column-major: a pooled tuple.Columns of typed vectors, validity
// bitmaps and an optional selection vector. A batch received from Next
// is owned by the caller until it calls Release; its vectors are
// immutable and die at Release, when the pool recycles them — which is
// what lets scans, joins and exchanges stream with zero garbage per
// row. Rows boxes a batch's rows into storage that outlives it.
type Batch struct {
	// cols is retained across pool cycles so its vectors recycle.
	cols *tuple.Columns
	// pooled marks batches the pool may recycle. A batch whose vectors
	// grew past DefaultBatchSize is un-pooled, so the pool never
	// accumulates oversized vector storage (string payloads are shared
	// headers, so vectors never balloon on payload bytes).
	pooled bool
}

// Rows boxes the batch's selected rows into fresh storage the caller
// owns: the rows stay valid after Release and after the pool reuses the
// batch (string payloads are shared, immutable headers). It is the
// client edge's materializer — Collect and the serving layer's result
// rows; operators read Cols and never box a value.
func (b *Batch) Rows() []tuple.Tuple {
	c := b.cols
	n, ncols := c.Len(), c.NumCols()
	rows := make([]tuple.Tuple, n)
	vals := make(tuple.Tuple, n*ncols)
	sel := c.Sel()
	for k := range rows {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		r := vals[k*ncols : (k+1)*ncols : (k+1)*ncols]
		for ci := range r {
			r[ci] = c.Value(ci, i)
		}
		rows[k] = r
	}
	return rows
}

// Cols returns the batch's columnar payload (never nil).
func (b *Batch) Cols() *tuple.Columns { return b.cols }

// Len returns the number of live rows in the batch.
func (b *Batch) Len() int { return b.cols.Len() }

// Full reports whether the batch reached its capacity.
func (b *Batch) Full() bool { return b.cols.Len() >= DefaultBatchSize }

// AppendColRow adds one row to the batch's vectors — how group-by emits
// its groups. Growing the vectors past the standard batch capacity
// un-pools the batch (see Batch.pooled).
func (b *Batch) AppendColRow(t tuple.Tuple) {
	if b.pooled && b.cols.FullLen() >= DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendRow(t)
}

// AppendColRowFrom appends physical row i of src to a columnar batch's
// vectors — flat copies, string headers shared. Same un-pool rule as
// AppendColRow.
func (b *Batch) AppendColRowFrom(src *tuple.Columns, i int) {
	if b.pooled && b.cols.FullLen() >= DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendRowFrom(src, i)
}

// AppendColGather bulk-appends the listed physical rows of src to a
// columnar batch — one monomorphic gather loop per column, the exchange
// repack path and the scan's copy of a filtered block. Same un-pool rule
// as AppendColRow.
func (b *Batch) AppendColGather(src *tuple.Columns, idxs []int32) {
	if b.pooled && b.cols.FullLen()+len(idxs) > DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendGather(src, idxs)
}

// AppendColRange bulk-appends src's physical rows [from, to) to a
// columnar batch — flat memmoves, the scan's copy of an unfiltered
// block. Same un-pool rule as AppendColRow.
func (b *Batch) AppendColRange(src *tuple.Columns, from, to int) {
	if b.pooled && b.cols.FullLen()+to-from > DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendRange(src, from, to)
}

// AppendColRows bulk-transposes rows into the batch — Source's
// batch-at-a-time form of AppendColRow, with the same un-pool rule.
func (b *Batch) AppendColRows(rows []tuple.Tuple) {
	if b.pooled && b.cols.FullLen()+len(rows) > DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendRows(rows)
}

var batchPool = sync.Pool{
	New: func() any { return &Batch{pooled: true} },
}

// NewColBatch returns an empty pooled batch with ncols columns.
func NewColBatch(ncols int) *Batch {
	b := batchPool.Get().(*Batch)
	if b.cols == nil {
		b.cols = tuple.NewColumns(ncols)
	} else {
		b.cols.Reset(ncols)
	}
	return b
}

// DecodeColBatch returns a pooled columnar batch holding the rows of one
// tuple run frame, decoded straight into the batch's recycled vectors —
// how a received exchange frame re-enters the columnar path without
// boxing a value. String headers alias one per-frame copy of the bytes,
// so frame may be reused as soon as this returns. A frame of more than
// DefaultBatchSize rows un-pools the batch (the AppendColRow rule).
func DecodeColBatch(frame []byte) (*Batch, error) {
	b := NewColBatch(0)
	if _, err := b.cols.DecodeFrame(frame); err != nil {
		b.Release()
		return nil, err
	}
	if b.cols.FullLen() > DefaultBatchSize {
		b.pooled = false
	}
	return b, nil
}

// Release returns a pooled batch's vectors for reuse — required
// etiquette for every batch a consumer finishes with; Drain does it
// automatically. The vectors are truncated, not cleared: stale values
// linger until overwritten, a bounded retention the zero-GC emit path
// deliberately trades for.
func (b *Batch) Release() {
	if b.pooled {
		batchPool.Put(b)
	}
}

// Operator is a pull-based batch stream — the pipeline analogue of the
// Volcano iterator, widened from row-at-a-time to batch-at-a-time.
//
// Contract: Open must be called once before the first Next; Next returns
// (nil, nil) at end of stream and must not be called again after that;
// Close must be called exactly once, is valid after a partial drain, and
// releases any worker goroutines the operator started. Ownership of a
// returned batch passes to the caller, who should Release it when done.
type Operator interface {
	Open() error
	Next() (*Batch, error)
	Close() error
}

// Drain is the engine's one run loop: it opens op, pulls it to
// exhaustion handing every batch to sink, and closes it, returning the
// rows seen. A nil sink just counts. The batch is released after sink
// returns, so a sink that retains rows must box them first (Rows). A
// non-nil ctx is checked at every batch boundary: even when the
// operators have already buffered the remaining output (so no worker
// observes the cancellation), a cancelled query stops delivering and
// errors promptly.
func Drain(ctx context.Context, op Operator, sink func(*Batch) error) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	n := 0
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		b, err := op.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
		if sink != nil {
			err = sink(b)
		}
		b.Release()
		if err != nil {
			return n, err
		}
	}
}

// Collect drains an operator into a materialized row slice, boxing each
// batch's rows (Rows) before the batch is released.
func Collect(op Operator) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	_, err := Drain(nil, op, func(b *Batch) error {
		out = append(out, b.Rows()...)
		return nil
	})
	return out, err
}

// Count drains an operator and returns its row count without
// materializing any output — what a pipelined consumer that aggregates
// in place pays.
func Count(op Operator) (int, error) {
	return Drain(nil, op, nil)
}

// Source adapts an in-memory row slice into an Operator — the one place
// rows enter the engine. Each batch is a fresh pooled transpose of up to
// DefaultBatchSize rows, the in-memory analogue of a scan.
type Source struct {
	views [][]tuple.Tuple
	pos   int
}

// NewSource builds a source over rows.
func NewSource(rows []tuple.Tuple) *Source {
	return &Source{views: tuple.Views(rows, DefaultBatchSize)}
}

// Open resets the source to the first batch.
func (s *Source) Open() error { s.pos = 0; return nil }

// Next transposes and returns the next batch.
func (s *Source) Next() (*Batch, error) {
	if s.pos >= len(s.views) {
		return nil, nil
	}
	rows := s.views[s.pos]
	s.pos++
	b := NewColBatch(len(rows[0]))
	b.AppendColRows(rows)
	return b, nil
}

// Close is a no-op for sources.
func (s *Source) Close() error { return nil }

// ScanOp returns an operator that reads the refs' blocks on the
// executor's bounded worker pool, filters by the predicate conjunction,
// and streams matching rows in batches. Block reads are metered as
// scans; vanished blocks (concurrent repartition) are skipped. Batch
// order across blocks is nondeterministic when more than one worker
// runs.
func (e *Executor) ScanOp(refs []core.BlockRef, preds []predicate.Predicate) Operator {
	return &scanOp{e: e, refs: refs, preds: preds}
}

// TableScanOp returns a scan operator over every live tree of a table
// with predicate and zone-map pruning — the paper's predicate-based
// data access (§6). With NoPrune set it reads everything and filters
// row by row.
func (e *Executor) TableScanOp(tbl *core.Table, preds []predicate.Predicate) Operator {
	return e.ScanOp(e.TableRefs(tbl, preds), preds)
}

// TableRefs resolves a table's scan set under the executor's pruning
// mode — the blocks TableScanOp will read. The planner prices
// strategies and picks build sides from the same set, so cost estimates
// always match what a scan would actually touch.
func (e *Executor) TableRefs(tbl *core.Table, preds []predicate.Predicate) []core.BlockRef {
	return tbl.AllRefs(e.PrunePreds(preds))
}

// PrunePreds returns the predicates block pruning applies under the
// executor's pruning mode: preds, or none with NoPrune set (the scan
// still filters every row by preds).
func (e *Executor) PrunePreds(preds []predicate.Predicate) []predicate.Predicate {
	if e.NoPrune {
		return nil
	}
	return preds
}

type scanOp struct {
	e     *Executor
	refs  []core.BlockRef
	preds []predicate.Predicate

	next  atomic.Int64
	empty bool
	out   chan *Batch
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
	errMu sync.Mutex
	err   error // first worker error (cancellation); published before out closes
}

// setErr records the first worker error; Next surfaces it once the
// output channel closes (the workers have all exited by then, so the
// write happens-before the read).
func (s *scanOp) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *scanOp) Open() error {
	if len(s.refs) == 0 {
		// Predicate pruning often eliminates every block; skip the pool.
		s.empty = true
		return nil
	}
	w := s.e.workers()
	if w > len(s.refs) {
		w = len(s.refs)
	}
	if w < 1 {
		w = 1
	}
	// The channel buffer bounds how far scans run ahead of the consumer:
	// at most ~2 batches per worker are in flight, the pipelined
	// equivalent of the old code's single giant result slice.
	s.out = make(chan *Batch, 2*w)
	s.done = make(chan struct{})
	for i := 0; i < w; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.out)
	}()
	return nil
}

func (s *scanOp) worker() {
	defer s.wg.Done()
	n := s.e.Store.NumNodes()
	if n < 1 {
		n = 1
	}
	var sel []int32 // per-worker scratch for predicate survivors
	for {
		if cerr := s.e.ctxErr(); cerr != nil {
			s.setErr(cerr)
			return
		}
		idx := int(s.next.Add(1) - 1)
		if idx >= len(s.refs) {
			return
		}
		ref := s.refs[idx]
		node := s.e.taskNode(ref.Path)
		if s.e.RoundRobin {
			node = dfs.NodeID(idx % n)
		}
		blk, local, err := s.e.Store.GetBlock(ref.Path, node)
		if err != nil {
			continue // vanished (concurrent repartition): rows moved elsewhere
		}
		s.e.Meter.AddScan(blk.Len(), local)
		var ok bool
		if sel, ok = s.emitBlock(blk.Cols(), sel); !ok {
			return
		}
	}
}

// emitBlock is the scan of one block: filter, then copy. The predicate
// kernel narrows a selection over the block's own vectors, and the
// survivors are copied into pooled batches of at most DefaultBatchSize
// rows — flat range copies when every row survives, per-column gathers
// otherwise — so no value is boxed and block storage is never aliased
// by a batch. scratch is the worker's selection buffer; it comes back
// (possibly grown) for the next block. Reports false once the consumer
// has closed the stream.
func (s *scanOp) emitBlock(cols *tuple.Columns, scratch []int32) ([]int32, bool) {
	n := cols.FullLen()
	var sel []int32 // nil: every row survives, range copies below
	if len(s.preds) > 0 {
		sel = predicate.FilterSel(s.preds, cols, nil, scratch)
		scratch = sel[:0]
		if len(sel) < n {
			n = len(sel)
		} else {
			sel = nil
		}
	}
	for from := 0; from < n; from += DefaultBatchSize {
		to := min(from+DefaultBatchSize, n)
		b := NewColBatch(cols.NumCols())
		if sel == nil {
			b.AppendColRange(cols, from, to)
		} else {
			b.AppendColGather(cols, sel[from:to])
		}
		if !s.send(b) {
			return scratch, false
		}
	}
	return scratch, true
}

func (s *scanOp) send(b *Batch) bool {
	select {
	case s.out <- b:
		return true
	case <-s.done:
		b.Release()
		return false
	}
}

func (s *scanOp) Next() (*Batch, error) {
	if s.empty {
		return nil, nil
	}
	b, ok := <-s.out
	if !ok {
		s.errMu.Lock()
		err := s.err
		s.errMu.Unlock()
		return nil, err
	}
	return b, nil
}

func (s *scanOp) Close() error {
	if s.empty {
		return nil
	}
	s.once.Do(func() {
		close(s.done)
		// Drain so no worker stays blocked on send; the closer goroutine
		// closes out once every worker exits.
		for b := range s.out {
			b.Release()
		}
	})
	return nil
}

// Where wraps an operator with an extra predicate conjunction, repacking
// surviving rows into fresh batches. Scans push predicates down already;
// Where exists for filters that only apply mid-pipeline (e.g. on join
// outputs).
func Where(child Operator, preds []predicate.Predicate) Operator {
	if len(preds) == 0 {
		return child
	}
	return &filterOp{child: child, preds: preds}
}

type filterOp struct {
	child Operator
	preds []predicate.Predicate
}

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (*Batch, error) {
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		// The predicate kernel narrows the selection vector in place — no
		// row moves, no value is boxed, no new batch. Rejected rows just
		// leave the selection; downstream operators iterate what survives.
		cb := in.Cols()
		cb.NarrowSel(func(sel, buf []int32) []int32 {
			return predicate.FilterSel(f.preds, cb, sel, buf)
		})
		if cb.Len() > 0 {
			return in, nil
		}
		in.Release()
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// JoinCharge selects how a join operator meters its input rows.
type JoinCharge int

const (
	// ChargeNone meters nothing — callers meter the I/O that produced
	// the inputs.
	ChargeNone JoinCharge = iota
	// ChargeShuffle charges the CSJ shuffle factor per row (eq. 1: each
	// record is read, partitioned and written, and read again).
	ChargeShuffle
	// ChargeIntermediate charges the cheaper pipelined-shuffle factor
	// per row (§4.3's shuffle of materialized intermediates).
	ChargeIntermediate
)

// JoinOptions configures a pipelined hash join.
type JoinOptions struct {
	// BuildIsRight emits output rows as probe‖build instead of
	// build‖probe, so callers can build on either side while keeping
	// (left, right) column order.
	BuildIsRight bool
	// BuildCharge / ProbeCharge meter the respective input's rows as
	// they stream through the join.
	BuildCharge, ProbeCharge JoinCharge
	// BuildRowsEst is the planner's build-side cardinality estimate
	// (zone-map row counts); 0 means unknown. It sizes the radix
	// fan-out (pickRadixBits) and the Bloom filters of demoted
	// partitions, and nothing else: build buffers and tables are sized
	// by the rows that actually arrive. Estimates steer only
	// performance — a wrong one costs extra recursion or filter
	// saturation, never correctness or allocation in proportion.
	BuildRowsEst int
}

// Radix partitioning constants for the parallel hash join: the top
// radix bits of a key's Hash64 pick its partition, leaving the low
// bits (which index the partition table's buckets) uniform within each
// partition. The default 32 partitions oversplit the default worker
// pools (≤ ~10 workers) for load balance while keeping per-partition
// tables cache-friendly; joins carrying a build-size estimate pick
// their own fan-out in [minJoinRadixBits, maxJoinRadixBits] instead
// (pickRadixBits).
const (
	joinRadixBits    = 5
	joinPartitions   = 1 << joinRadixBits
	minJoinRadixBits = 2
	maxJoinRadixBits = 8
)

// pickRadixBits selects the join's radix fan-out from the planner's
// build-side estimate. Without an estimate the fixed default stands.
// With one, a budgeted join targets partitions of about one eighth of
// the memory budget: demotion then frees memory in fine steps (the
// resident set can fill close to the limit before another victim goes
// to disk), and second-pass loads are small enough that several run
// concurrently under the byte semaphore instead of serializing on one
// budget-sized load. Unbudgeted joins scale by rows alone (~16k rows
// per partition). The clamp keeps any estimate error inside one extra
// recursion level.
func pickRadixBits(estRows int, limit int64) int {
	if estRows <= 0 {
		return joinRadixBits
	}
	var target int
	if limit > 0 {
		target = int(8 * int64(estRows) * estRowBytes / limit)
	} else {
		target = estRows >> 14
	}
	bits := minJoinRadixBits
	for 1<<bits < target && bits < maxJoinRadixBits {
		bits++
	}
	return bits
}

// estRowBytes approximates a row's in-memory footprint when only a row
// count is known. Deliberately generous: real rows carry strings (TPC-H
// orders average ~300 bytes), and the two failure directions are not
// symmetric — overestimating splits a small build a little finer, which
// costs almost nothing, while underestimating yields partitions that
// dwarf the budget and a second pass with no load parallelism.
const estRowBytes = 256

// chargeRows wraps an operator so every row flowing through it is
// metered at the given rate — the virtual-shuffle accounting point. The
// join itself calls Meter.Add* only for its result rows: in centralized
// mode its inputs are wrapped here, and in distributed mode the
// Exchange operators meter the rows that physically move instead.
func chargeRows(child Operator, m *cluster.Meter, charge JoinCharge) Operator {
	if charge == ChargeNone {
		return child
	}
	return &chargeOp{child: child, m: m, charge: charge}
}

type chargeOp struct {
	child  Operator
	m      *cluster.Meter
	charge JoinCharge
}

func (c *chargeOp) Open() error { return c.child.Open() }

func (c *chargeOp) Next() (*Batch, error) {
	b, err := c.child.Next()
	if b != nil {
		switch c.charge {
		case ChargeShuffle:
			c.m.AddShuffle(b.Len())
		case ChargeIntermediate:
			c.m.AddIntermediateShuffle(b.Len())
		}
	}
	return b, err
}

func (c *chargeOp) Close() error { return c.child.Close() }

// JoinOp returns a pipelined, partition-parallel hash join: Open drains
// the build input, radix-partitioning rows by key hash across the
// executor's worker pool into columnar stores and sealing one chained
// table per partition (buildTables, coljoin.go); Next then streams
// probe batches through the tables, with probe workers gathering
// matches into columnar output batches. Result rows are metered once at
// end of stream. The probe side is never materialized. Output batch
// order is nondeterministic when more than one worker runs.
//
// The input-charge options are applied by wrapping the inputs in
// chargeRows; the join body itself never touches the meter beyond its
// result-row count.
func (e *Executor) JoinOp(build Operator, buildCol int, probe Operator, probeCol int, opts JoinOptions) Operator {
	build = chargeRows(build, e.Meter, opts.BuildCharge)
	probe = chargeRows(probe, e.Meter, opts.ProbeCharge)
	bits := pickRadixBits(opts.BuildRowsEst, e.Mem.Limit())
	return &hashJoinOp{
		e: e, build: build, probe: probe, bCol: buildCol, pCol: probeCol, opts: opts,
		radixBits: bits, radixShift: uint(64 - bits), nParts: 1 << bits,
	}
}

type hashJoinOp struct {
	e            *Executor
	build, probe Operator
	bCol, pCol   int
	opts         JoinOptions

	// radixBits/radixShift/nParts are the join's dynamic radix fan-out,
	// fixed at construction (pickRadixBits) so build, probe, and spill
	// recursion all agree on the partition function.
	radixBits  int
	radixShift uint
	nParts     int

	// cbuild is the sealed build side: one columnar store plus a chained
	// hash table per partition (coljoin.go).
	cbuild    *colBuild
	buildRows int
	// spill is the hybrid-hash-join state, non-nil exactly when the
	// executor carries a MemBudget; hasSpilled is frozen after the build
	// phase so probe routing never races a demotion.
	spill      *joinSpill
	hasSpilled bool

	in      chan *Batch // probe batches awaiting a worker
	out     chan *Batch // output batches awaiting the consumer
	done    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	results atomic.Int64
	perr    error // probe-side error; published before in closes
	werrMu  sync.Mutex
	werr    error       // first worker/spill error; published before out closes
	failed  atomic.Bool // workers stop doing real work once set
	metered bool
}

// fail records the first worker or spill error; the stream surfaces it
// from Next once the output channel closes.
func (j *hashJoinOp) fail(err error) {
	j.werrMu.Lock()
	if j.werr == nil {
		j.werr = err
	}
	j.werrMu.Unlock()
	j.failed.Store(true)
}

func (j *hashJoinOp) workerCount() int {
	w := j.e.workers()
	if w < 1 {
		w = 1
	}
	return w
}

func (j *hashJoinOp) Open() error {
	if j.e.Mem != nil {
		j.spill = newJoinSpill(j)
	}
	if err := j.build.Open(); err != nil {
		return err
	}
	if err := j.buildTables(); err != nil {
		// Callers need not Close after a failed Open (Collect doesn't);
		// release spill state here. cleanup is idempotent, so callers
		// that do Close anyway (Gather) stay safe.
		if j.spill != nil {
			j.spill.cleanup()
		}
		return err
	}
	if j.spill != nil {
		j.hasSpilled = j.spill.anySpilled()
	}
	if err := j.probe.Open(); err != nil {
		if j.spill != nil {
			j.spill.cleanup()
		}
		return err
	}
	w := j.workerCount()
	j.in = make(chan *Batch, w)
	// The out buffer bounds how far probe workers run ahead of the
	// consumer, like the scan operator's bounded channel.
	j.out = make(chan *Batch, 2*w)
	j.done = make(chan struct{})
	for i := 0; i < w; i++ {
		j.wg.Add(1)
		go j.probeWorker(i)
	}
	go func() {
		j.wg.Wait()
		// Every probe worker has exited (their spilled probe runs are
		// sealed), so the second pass can join the demoted partitions
		// before the stream ends.
		if j.hasSpilled && !j.failed.Load() {
			j.secondPass()
		}
		close(j.out)
	}()
	go j.dispatchProbe()
	return nil
}

// dispatchProbe feeds non-empty probe batches to the workers
// (joinInput). A single goroutine owns probe.Next; even with an empty
// hash table the probe side drains so its rows pass the chargeRows
// wrapper and are metered.
func (j *hashJoinOp) dispatchProbe() {
	defer close(j.in)
	for {
		if cerr := j.e.ctxErr(); cerr != nil {
			// fail too, so workers stop joining and the closer goroutine
			// skips the second pass.
			j.fail(cerr)
			j.perr = cerr
			return
		}
		b, err := j.probe.Next()
		if err != nil {
			j.perr = err
			return
		}
		if b == nil {
			return
		}
		if b = joinInput(b); b == nil {
			continue
		}
		select {
		case j.in <- b:
		case <-j.done:
			b.Release()
			return
		}
	}
}

func (j *hashJoinOp) send(b *Batch) bool {
	j.results.Add(int64(b.Len()))
	select {
	case j.out <- b:
		return true
	case <-j.done:
		b.Release()
		return false
	}
}

func (j *hashJoinOp) Next() (*Batch, error) {
	b, ok := <-j.out
	if !ok {
		// out closes only after every worker exits, which happens after
		// the dispatcher published any probe error and closed in, and
		// after any worker/spill error landed in werr.
		if j.perr != nil {
			return nil, j.perr
		}
		j.werrMu.Lock()
		werr := j.werr
		j.werrMu.Unlock()
		if werr != nil {
			return nil, werr
		}
		if !j.metered {
			j.metered = true
			j.e.Meter.AddResultRows(int(j.results.Load()))
			if j.spill != nil {
				if n := j.spill.skipped.Load(); n > 0 {
					j.e.Meter.AddSpillSkip(int(n))
				}
			}
		}
		return nil, nil
	}
	return b, nil
}

func (j *hashJoinOp) Close() error {
	j.once.Do(func() {
		if j.done != nil {
			close(j.done)
			// Drain so no worker stays blocked on send; the closer
			// goroutine closes out once every worker exits.
			for b := range j.out {
				b.Release()
			}
		}
		if j.spill != nil {
			// The out drain above only returns after the closer goroutine
			// (and with it the second pass) has exited, so nothing is
			// reading the run files any more.
			j.spill.cleanup()
		}
	})
	j.cbuild = nil
	return j.probe.Close()
}

// HyperJoinOp executes the §4.1 algorithm: Open groups the build side's
// blocks with the bottom-up heuristic under a memory budget of B blocks
// (the block-read schedule) and starts the bounded worker pool; each
// group builds a hash table over its R blocks and probes it with every
// overlapping S block, and Next streams joined batches as groups
// complete. Block reads are metered as build/probe reads; probe
// multiplicity yields the effective CHyJ of eq. 2, reported by Stats
// once the stream is drained.
type HyperJoinOp struct {
	e            *Executor
	rRefs, sRefs []core.BlockRef
	rPreds       []predicate.Predicate
	sPreds       []predicate.Predicate
	// rPredsKeyed is rPreds plus "build key is not NULL", applied to R
	// blocks whose key column can hold a NULL.
	rPredsKeyed []predicate.Predicate
	rCol, sCol  int
	budget      int
	// buildIsRight emits S‖R instead of R‖S: the planner builds on the
	// plan's right side and still gets (left, right) column order.
	buildIsRight bool

	plan    HyperPlan
	stats   HyperStats
	statsMu sync.Mutex
	results atomic.Int64
	empty   bool
	metered bool
	errMu   sync.Mutex
	err     error // first worker error (cancellation); published before out closes

	next atomic.Int64
	out  chan *Batch
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewHyperJoinOp builds the streaming hyper-join over pre-pruned build
// (R) and probe (S) refs. Output rows are R‖S, or S‖R with buildIsRight
// set — how a join that builds on the plan's right side keeps the
// plan's (left, right) column order.
func (e *Executor) NewHyperJoinOp(rRefs []core.BlockRef, rPreds []predicate.Predicate, rCol int,
	sRefs []core.BlockRef, sPreds []predicate.Predicate, sCol int, budget int, buildIsRight bool) *HyperJoinOp {
	return &HyperJoinOp{
		e: e, rRefs: rRefs, sRefs: sRefs, rPreds: rPreds, sPreds: sPreds,
		rCol: rCol, sCol: sCol, budget: budget, buildIsRight: buildIsRight,
	}
}

// Stats reports what the hyper-join did; complete only after Next has
// returned nil (the stream is drained).
func (h *HyperJoinOp) Stats() HyperStats { return h.stats }

func (h *HyperJoinOp) Open() error {
	if len(h.rRefs) == 0 || len(h.sRefs) == 0 {
		h.empty = true
		return nil
	}
	h.plan = PlanHyper(h.rRefs, h.rCol, h.sRefs, h.sCol, h.budget)
	h.rPredsKeyed = append(h.rPreds[:len(h.rPreds):len(h.rPreds)],
		predicate.NewCmp(h.rCol, predicate.NE, value.Value{}))
	h.stats = HyperStats{
		Groups:       len(h.plan.Grouping),
		SBlocks:      len(h.sRefs),
		GroupingCost: hyperjoin.Cost(h.plan.Grouping, h.plan.V),
	}
	w := h.e.workers()
	if w > len(h.plan.Grouping) {
		w = len(h.plan.Grouping)
	}
	if w < 1 {
		w = 1
	}
	h.out = make(chan *Batch, 2*w)
	h.done = make(chan struct{})
	for i := 0; i < w; i++ {
		h.wg.Add(1)
		go h.worker()
	}
	go func() {
		h.wg.Wait()
		close(h.out)
	}()
	return nil
}

func (h *HyperJoinOp) worker() {
	defer h.wg.Done()
	for {
		if cerr := h.e.ctxErr(); cerr != nil {
			h.errMu.Lock()
			if h.err == nil {
				h.err = cerr
			}
			h.errMu.Unlock()
			return
		}
		gi := int(h.next.Add(1) - 1)
		if gi >= len(h.plan.Grouping) {
			return
		}
		if !h.runGroup(h.plan.Grouping[gi]) {
			return
		}
	}
}

// runGroup executes one group of the §4.1 algorithm: build a join table
// over the group's R blocks, probe it with every overlapping S block,
// streaming output batches. Returns false when the operator was closed.
//
// A group is a one-partition hash join over block columns: the R
// blocks' surviving rows are gathered into one columnar store with
// their Hash64Column hashes and chained (newColPart), and every S block
// is probed in place — a selection over the block's own vectors —
// through the typed probe loops and pair-gather emission of coljoin.go,
// so output batches are columnar (R columns, then S columns, or the
// reverse with buildIsRight) and no row is boxed.
func (h *HyperJoinOp) runGroup(group []int) bool {
	// The group's task runs where its first R block lives. Block metadata
	// knows the group's exact row count up front, so the store is born at
	// its final size whenever the predicates keep every row.
	node := h.e.taskNode(h.rRefs[group[0]].Path)
	est := 0
	for _, i := range group {
		est += h.rRefs[i].Meta.Count
	}
	gj := onePartJoin(h.e, h.rCol, h.sCol, h.buildIsRight, h.out, h.done)
	var store *tuple.Columns
	hashes := make([]uint64, 0, est)
	var hv []uint64
	var scratch []int32
	for _, i := range group {
		blk, local, err := h.e.Store.GetBlock(h.rRefs[i].Path, node)
		if err != nil {
			continue
		}
		h.e.Meter.AddBuild(blk.Len(), local)
		cols := blk.Cols()
		if cols.FullLen() == 0 {
			continue
		}
		if store == nil {
			store = tuple.NewColumns(cols.NumCols())
			store.Reserve(est)
		}
		// NULL never equals NULL in a join: a key column that can hold one
		// is filtered through "key != NULL" as well.
		preds := h.rPreds
		if key := cols.Col(h.rCol); key.Valid() != nil || key.Boxed() != nil {
			preds = h.rPredsKeyed
		}
		hv = cols.Hash64Column(h.rCol, hv)
		if len(preds) == 0 {
			store.AppendRange(cols, 0, cols.FullLen())
			hashes = append(hashes, hv...)
			continue
		}
		sel := predicate.FilterSel(preds, cols, nil, scratch)
		scratch = sel[:0]
		store.AppendGather(cols, sel)
		for _, r := range sel {
			hashes = append(hashes, hv[r])
		}
	}
	gj.sealOne(store, hashes)
	// Probe phase: only overlapping S blocks.
	union := hyperjoin.Union(h.plan.V, group)
	probed := 0
	st := &colProbe{j: gj, ok: true}
	for _, j := range union.Ones() {
		if j >= len(h.sRefs) {
			break
		}
		blk, local, err := h.e.Store.GetBlock(h.sRefs[j].Path, node)
		if err != nil {
			continue
		}
		h.e.Meter.AddProbe(blk.Len(), local)
		probed++
		if gj.buildRows == 0 {
			continue // nothing can match; the read is still metered
		}
		cols := blk.Cols()
		var sel []int32
		if len(h.sPreds) > 0 {
			sel = predicate.FilterSel(h.sPreds, cols, nil, scratch)
			scratch = sel[:0]
		}
		// No partition of a group is ever spilled, so the probe loops touch
		// neither a spiller nor the skip counter.
		gj.probeColsBatch(cols.View(sel), st, nil, nil)
		// Pairs index this block's vectors: gather them before moving on.
		st.flush()
		if !st.ok {
			return false
		}
	}
	h.results.Add(gj.results.Load())
	h.statsMu.Lock()
	h.stats.BuildBlocks += len(group)
	h.stats.ProbeBlocks += probed
	h.statsMu.Unlock()
	return true
}

func (h *HyperJoinOp) Next() (*Batch, error) {
	if h.empty {
		return nil, nil
	}
	b, ok := <-h.out
	if !ok {
		h.errMu.Lock()
		err := h.err
		h.errMu.Unlock()
		if err != nil {
			return nil, err
		}
		h.finish()
		return nil, nil
	}
	return b, nil
}

// finish seals the stats once the stream is drained.
func (h *HyperJoinOp) finish() {
	if h.metered {
		return
	}
	h.metered = true
	if h.stats.SBlocks > 0 {
		h.stats.CHyJ = float64(h.stats.ProbeBlocks) / float64(h.stats.SBlocks)
	}
	h.e.Meter.AddResultRows(int(h.results.Load()))
}

func (h *HyperJoinOp) Close() error {
	if h.empty {
		return nil
	}
	h.once.Do(func() {
		close(h.done)
		for b := range h.out {
			b.Release()
		}
	})
	return nil
}
