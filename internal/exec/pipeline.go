// Batched, pipelined execution: the Operator/Batch data plane.
//
// Operators stream fixed-capacity, columnar Batches through
// Open/Next/Close instead of materializing a []tuple.Tuple at every
// boundary: scans read column-major blocks on a bounded worker pool and
// emit each block as capped views of its own vectors, filtered through a
// selection; filters narrow a batch's selection in place; joins build a
// hash table from their build input and then stream probe batches
// through it (the build and probe bodies live in coljoin.go, the
// spilling half in spill.go). Rows enter only through NewSource and
// leave only through Batch.Rows. Drain is the one run loop; Collect and
// Count are its materializing and counting forms.
package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/hyperjoin"
	"adaptdb/internal/predicate"
	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
)

// DefaultBatchSize is the row capacity of pipeline batches. 1024 rows
// keeps a batch of pointers well inside L2 while amortizing channel and
// interface-call overhead across the chunk.
const DefaultBatchSize = 1024

// A scan cuts blocks into views at multiples of DefaultBatchSize, and
// tuple.Columns.AliasRange takes only cuts at multiples of 64.
var _ [0]struct{} = [DefaultBatchSize % 64]struct{}{}

// Batch is a fixed-capacity chunk of rows flowing between operators,
// held column-major: a tuple.Columns of typed vectors, validity bitmaps
// and an optional selection vector. A batch received from Next is owned
// by the caller until it calls Release, and its vectors are read-only
// to every consumer. A batch either owns pooled vectors, which the pool
// recycles at Release, or is a scan's view of a stored block (an alias
// batch): its vectors are the block's own, capped at the block's
// length, and only its selection is its own. Either way it streams with
// zero garbage per row. Rows boxes a batch's rows into storage that
// outlives it.
type Batch struct {
	// cols is retained across pool cycles so its vectors recycle.
	cols *tuple.Columns
	// pooled marks batches the pool may recycle. A batch whose vectors
	// grew past DefaultBatchSize is un-pooled, so the pool never
	// accumulates oversized vector storage (string payloads are shared
	// headers, so vectors never balloon on payload bytes).
	pooled bool
	// alias marks a block view (aliasBatch). It recycles through
	// aliasPool only: batchPool's Reset would truncate and append into
	// the block's vectors and clear its string headers.
	alias bool
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

// KeepRows narrows the batch's live rows to idxs, physical rows drawn
// from its live rows in order, copied into the batch's own selection
// buffer — how an exchange hands the producing node its own share of a
// batch without repacking it. idxs stays the caller's.
func (b *Batch) KeepRows(idxs []int32) {
	if len(idxs) == b.Len() {
		return // every live row stays
	}
	b.cols.NarrowSel(func(_, buf []int32) []int32 { return append(buf, idxs...) })
}

// keepCols narrows the batch to its columns cols, in that order (no
// column twice), moving vector headers only. A view drops the other
// headers (tuple.Columns.KeepCols); a batch that owns its vectors keeps
// their storage for its next use (KeepOwnCols).
func (b *Batch) keepCols(cols []int) {
	if b.alias {
		b.cols.KeepCols(cols)
		return
	}
	b.cols.KeepOwnCols(cols)
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

// AppendColGather bulk-appends the listed physical rows of src to a
// columnar batch — one monomorphic gather loop per column, the exchange
// repack path for rows bound for another node. Same un-pool rule as
// AppendColRow.
func (b *Batch) AppendColGather(src *tuple.Columns, idxs []int32) {
	if b.pooled && b.cols.FullLen()+len(idxs) > DefaultBatchSize {
		b.pooled = false
	}
	b.cols.AppendGather(src, idxs)
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

var aliasPool = sync.Pool{
	New: func() any { return &Batch{cols: tuple.NewColumns(0), alias: true} },
}

// aliasBatch returns a pooled batch that views src's physical rows
// [from, to) in place (tuple.Columns.AliasRange): no cell is copied.
func aliasBatch(src *tuple.Columns, from, to int) *Batch {
	b := aliasPool.Get().(*Batch)
	b.cols.AliasRange(src, from, to)
	return b
}

// Release returns a batch for reuse — required etiquette for every
// batch a consumer finishes with; Drain does it automatically. A pooled
// batch's vectors are truncated for the next user when the pool hands
// it out again (string headers cleared, so they pin no payload). An
// alias batch drops its vector headers here, so it pins no block while
// it waits in its pool.
func (b *Batch) Release() {
	switch {
	case b.alias:
		b.cols.DropAlias()
		aliasPool.Put(b)
	case b.pooled:
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
// and streams matching rows as views of the blocks' columns cols, in
// that order (nil: every column; emitBlock). Predicates read the
// blocks' full width, whatever cols keeps. Block
// reads are metered as scans. A referenced block that is missing from
// the store fails the scan with ErrBlockMissing: no front door
// repartitions during a drain, so a missing block would otherwise mean
// a silently short answer. Batch order across blocks is
// nondeterministic when more than one worker runs.
func (e *Executor) ScanOp(refs []core.BlockRef, preds []predicate.Predicate, cols []int) Operator {
	return &scanOp{e: e, refs: refs, preds: preds, cols: cols, p: pool{e: e}}
}

// TableScanOp returns a scan operator over every live tree of a table
// with predicate and zone-map pruning — the paper's predicate-based
// data access (§6). With NoPrune set it reads everything and filters
// row by row.
func (e *Executor) TableScanOp(tbl *core.Table, preds []predicate.Predicate) Operator {
	return e.ScanOp(e.TableRefs(tbl, preds), preds, nil)
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

// ErrBlockMissing reports that a block a compiled scan or hyper-join
// references is gone from the store. The wrapping error names the path.
var ErrBlockMissing = errors.New("exec: referenced block is missing")

// getBlock reads a referenced block, failing with ErrBlockMissing when
// the store has none at path.
func (e *Executor) getBlock(path string, node dfs.NodeID) (*tuple.Columns, bool, error) {
	blk, local, err := e.Store.GetBlock(path, node)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s", ErrBlockMissing, path)
	}
	return blk.Cols(), local, nil
}

type scanOp struct {
	e     *Executor
	refs  []core.BlockRef
	preds []predicate.Predicate
	cols  []int // the emitted columns, strictly increasing; nil = all
	p     pool
}

func (s *scanOp) Open() error {
	if len(s.refs) > 0 {
		// Predicate pruning often eliminates every block; the pool then
		// never starts and the stream is empty.
		s.p.start(min(s.e.workers(), len(s.refs)), s.worker, nil)
	}
	return nil
}

func (s *scanOp) worker(int) {
	for {
		idx, ok := s.p.claim(len(s.refs))
		if !ok {
			return
		}
		ref := s.refs[idx]
		cols, local, err := s.e.getBlock(ref.Path, s.e.taskNode(ref))
		if err != nil {
			s.p.fail(err)
			return
		}
		s.e.Meter.AddScan(cols.FullLen(), local)
		if !s.emitBlock(cols) {
			return
		}
	}
}

// emitBlock is the scan of one block: filter, then view. The block is
// cut into chunks of at most DefaultBatchSize rows, and each chunk
// leaves as an alias batch over the block's own vectors (aliasBatch);
// with predicates, the kernel narrows the batch's own selection over
// the full width, and then the batch keeps only the scan's columns
// (tuple.Columns.KeepCols moves vector headers, never cells). The
// selection is cleared when every row of the chunk survives, and a
// chunk with no survivors is skipped. No cell is copied: rows are
// copied only where they must be — into a hash table, onto the wire, or
// into a batch bound for another node. The views are safe because
// stored blocks are append-only and no append runs during a drain.
// Reports false once the consumer has closed the stream.
func (s *scanOp) emitBlock(cols *tuple.Columns) bool {
	n := cols.FullLen()
	for from := 0; from < n; from += DefaultBatchSize {
		to := min(from+DefaultBatchSize, n)
		b := aliasBatch(cols, from, to)
		if len(s.preds) > 0 {
			cb := b.cols
			cb.NarrowSel(func(sel, buf []int32) []int32 {
				return predicate.FilterSel(s.preds, cb, sel, buf)
			})
			switch cb.Len() {
			case 0:
				b.Release()
				continue
			case to - from:
				cb.SetSel(nil)
			}
		}
		if s.cols != nil {
			b.cols.KeepCols(s.cols)
		}
		if !s.p.send(b) {
			return false
		}
	}
	return true
}

func (s *scanOp) Next() (*Batch, error) { return s.p.next() }

func (s *scanOp) Close() error {
	s.p.close()
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

// Charge is the eq. 1 price class of an exchanged plan edge — what the
// one-node fabric (centralFabric) meters each row it passes at.
type Charge int

const (
	// ChargeNone meters nothing — the rows are read in place, and the
	// scan that produced them already metered the I/O.
	ChargeNone Charge = iota
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
	// BuildRowsEst is the planner's build-side cardinality estimate
	// (zone-map row counts); 0 means unknown. It sizes the radix
	// fan-out (pickRadixBits) and nothing else: build buffers, tables
	// and the key filter are sized by the rows that actually arrive.
	// Estimates steer only performance — a wrong one costs extra
	// recursion, never correctness or allocation in proportion.
	BuildRowsEst int
}

// Radix partitioning constants for the parallel hash join: the top
// radix bits of a key's Hash64 pick its partition. Rows of a partition
// share those bits, and behind a hash exchange (hash % nodes) they
// share the low bits too, so a partition's buckets come from a remix of
// the whole hash instead (colPart.slot). The default 32 partitions oversplit the default worker
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
// metered at the given class — the one-node fabric's exchange. The
// N-node fabrics meter the rows that physically cross nodes instead.
func chargeRows(child Operator, m *cluster.Meter, charge Charge) Operator {
	if charge == ChargeNone {
		return child
	}
	return &chargeOp{child: child, m: m, charge: charge}
}

type chargeOp struct {
	child  Operator
	m      *cluster.Meter
	charge Charge
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
func (e *Executor) JoinOp(build Operator, buildCol int, probe Operator, probeCol int, opts JoinOptions) Operator {
	bits := pickRadixBits(opts.BuildRowsEst, e.Mem.Limit())
	return &hashJoinOp{
		e: e, build: build, probe: probe, bCol: buildCol, pCol: probeCol, opts: opts,
		radixBits: bits, radixShift: uint(64 - bits), nParts: 1 << bits, p: pool{e: e},
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
	// filter is the sealed build's key filter (bloom.go), built when the
	// probe exchange is filtered or the join has spilled, nil otherwise.
	filter *KeyFilter

	// p runs the build workers, the probe workers and the second pass.
	// perr is the probe side's error, published before the probe input
	// closes; it takes precedence over a worker's.
	p       pool
	perr    error
	metered bool
	// opened is set by Open, which owns the build input from then on;
	// Close closes the build input of a join never opened.
	opened bool
}

func (j *hashJoinOp) Open() error {
	j.opened = true
	if j.e.Mem != nil {
		j.spill = newJoinSpill(j)
	}
	if err := j.build.Open(); err != nil {
		j.publishFilter(nil)
		return err
	}
	if err := j.buildTables(); err != nil {
		// Callers need not Close after a failed Open (Collect doesn't);
		// release spill state here. cleanup is idempotent, so callers
		// that do Close anyway (Gather) stay safe.
		if j.spill != nil {
			j.spill.cleanup()
		}
		j.publishFilter(nil)
		return err
	}
	j.publishFilter(j.filter)
	if err := j.probe.Open(); err != nil {
		if j.spill != nil {
			j.spill.cleanup()
		}
		j.dropBuild()
		return err
	}
	w := j.e.workers()
	in := make(chan *Batch, w) // one batch queued per probe worker
	var then func()
	if j.hasSpilled {
		// Every probe worker has exited (their spilled probe runs are
		// sealed), so the second pass can join the demoted partitions
		// before the stream ends.
		then = j.secondPass
	}
	j.p.start(w, func(id int) { j.probeWorker(id, in) }, then)
	go func() {
		j.perr = j.feed(j.probe, in, j.p.done)
		close(in)
	}()
	return nil
}

// filterSink is the join's probe input when it is a filtered exchange,
// which waits for the join's key filter; nil otherwise.
func (j *hashJoinOp) filterSink() FilterSink {
	if fs, ok := j.probe.(FilterSink); ok && fs.Filtered() {
		return fs
	}
	return nil
}

// publishFilter hands a filtered probe exchange f: the sealed build's
// key filter, or nil, which passes every row, when the join will not
// seal, so the exchange's producers never wait on it.
func (j *hashJoinOp) publishFilter(f *KeyFilter) {
	if fs := j.filterSink(); fs != nil {
		fs.PublishFilter(f)
	}
}

// feed is the join's single goroutine over an input's Next (operators
// need not be concurrency-safe): it hands the build or probe side's
// non-empty batches (joinInput) to the workers through in until the
// input ends, fails, or done closes, and returns the input's error. A
// done context fails the pool too, so workers stop joining and the
// second pass is skipped. Even with an empty hash table the probe side
// drains, so the exchange feeding it ends cleanly; that exchange meters
// the rows it sent, behind a filtered exchange only the rows the build's
// filter let through. The caller closes in.
func (j *hashJoinOp) feed(src Operator, in chan<- *Batch, done <-chan struct{}) error {
	for {
		if cerr := j.e.ctxErr(); cerr != nil {
			j.p.fail(cerr)
			return cerr
		}
		b, err := src.Next()
		if err != nil || b == nil {
			return err
		}
		if b = joinInput(b); b == nil {
			continue
		}
		select {
		case in <- b:
		case <-done:
			b.Release()
			return nil
		}
	}
}

func (j *hashJoinOp) Next() (*Batch, error) {
	b, err := j.p.next()
	if b != nil {
		return b, nil
	}
	// The stream has ended: every worker has exited, after the feeder
	// published any probe error and closed the probe input.
	if j.perr != nil {
		return nil, j.perr
	}
	if err != nil {
		return nil, err
	}
	if !j.metered {
		j.metered = true
		j.e.Meter.AddResultRows(int(j.p.rows.Load()))
		if j.spill != nil {
			if n := j.spill.skipped.Load(); n > 0 {
				j.e.Meter.AddSpillSkip(int(n))
			}
		}
	}
	return nil, nil
}

func (j *hashJoinOp) Close() error {
	if !j.opened {
		// The build input may be an exchange output that sibling
		// fragments' producers wait on.
		j.opened = true
		j.build.Close()
	}
	j.p.close()
	if j.spill != nil {
		// close returns only once the stream has ended, after the second
		// pass, so nothing is reading the run files any more.
		j.spill.cleanup()
	}
	// Nor is any worker probing the table: its storage goes back.
	j.dropBuild()
	return j.probe.Close()
}

// HyperJoinOp executes the §4.1 algorithm over a HyperPlan — the build
// side's blocks grouped with the bottom-up heuristic under a memory
// budget of B blocks (the block-read schedule). Open starts the bounded
// worker pool; each group builds a hash table over its R blocks and
// probes it with every overlapping S block, and Next streams joined
// batches as workers fill them (a worker's batches span its groups).
// Block reads are metered as build/probe reads; probe multiplicity
// yields the effective CHyJ of eq. 2, reported by Stats once the stream
// is drained.
//
// A fragment (NewHyperFragment) runs only the groups it is given. On
// a node's executor view (NodeSet.At) it runs the node's share of the
// plan (HyperPlan.SplitByNode): the groups whose first build block's
// primary replica the node holds — where an unpinned executor would
// run them (taskNode), so every block read is metered local or remote
// exactly as one operator over the whole plan meters it. The fragments
// of one plan partition its groups, and their Stats sum to that
// operator's.
type HyperJoinOp struct {
	e            *Executor
	rRefs, sRefs []core.BlockRef
	rPreds       []predicate.Predicate
	sPreds       []predicate.Predicate
	rCol, sCol   int
	// rKeep and sKeep are the build and probe columns the join emits,
	// strictly increasing (nil: every column); each holds its side's key.
	rKeep, sKeep []int
	// buildIsRight emits S‖R instead of R‖S: the planner builds on the
	// plan's right side and still gets (left, right) column order.
	buildIsRight bool

	plan    HyperPlan
	groups  hyperjoin.Grouping // the groups this operator runs
	stats   HyperStats
	statsMu sync.Mutex
	metered bool
	p       pool
}

// NewHyperJoinOp builds the streaming hyper-join that runs plan: its
// pre-pruned build (R) and probe (S) refs, grouped as the plan groups
// them — the schedule the planner priced, never recomputed here. rPreds
// and sPreds filter the blocks' rows. Output rows are R‖S, or S‖R with
// buildIsRight set — how a join that builds on the plan's right side
// keeps the plan's (left, right) column order.
func (e *Executor) NewHyperJoinOp(plan HyperPlan, rPreds, sPreds []predicate.Predicate, buildIsRight bool) *HyperJoinOp {
	return e.NewHyperFragment(plan, plan.Grouping, rPreds, sPreds, nil, nil, buildIsRight)
}

// NewHyperFragment is NewHyperJoinOp running only groups, a share of
// plan's grouping (one node's, from SplitByNode), and emitting only the
// build columns rKeep and probe columns sKeep, each strictly increasing
// and holding its side's join key (nil: every column). A group's store
// gathers only the kept build columns, and its output gathers only the
// kept probe columns. Stats and Plan still describe the whole plan
// where they say so.
func (e *Executor) NewHyperFragment(plan HyperPlan, groups hyperjoin.Grouping, rPreds, sPreds []predicate.Predicate, rKeep, sKeep []int, buildIsRight bool) *HyperJoinOp {
	return &HyperJoinOp{
		e: e, rRefs: plan.R, sRefs: plan.S, rPreds: rPreds, sPreds: sPreds,
		rCol: plan.RCol, sCol: plan.SCol, rKeep: rKeep, sKeep: sKeep,
		buildIsRight: buildIsRight, plan: plan, groups: groups, p: pool{e: e},
	}
}

// keptIndex is table column col's index among the columns keep (nil:
// every column, so col itself).
func keptIndex(keep []int, col int) int {
	if keep == nil {
		return col
	}
	return slices.Index(keep, col)
}

// Stats reports what the hyper-join did; complete only after Next has
// returned nil (the stream is drained). Groups, BuildBlocks,
// ProbeBlocks, GroupingCost and CHyJ count this operator's groups;
// SBlocks is the whole plan's.
func (h *HyperJoinOp) Stats() HyperStats { return h.stats }

// Plan returns the schedule the operator runs.
func (h *HyperJoinOp) Plan() HyperPlan { return h.plan }

func (h *HyperJoinOp) Open() error {
	if len(h.groups) == 0 || len(h.sRefs) == 0 {
		return nil // the pool never starts: an empty stream
	}
	h.stats = HyperStats{
		Groups:       len(h.groups),
		SBlocks:      len(h.sRefs),
		GroupingCost: hyperjoin.Cost(h.groups, h.plan.V),
	}
	h.p.start(min(h.e.workers(), len(h.groups)), h.worker, nil)
	return nil
}

// worker runs groups until none is left. Its one colProbe carries the
// pending output batch across groups — every group emits the same
// columns, and gathered rows do not reference a group's build store —
// and the remainder leaves when the worker exits. Its build scratch
// also outlives groups and goes back to the pools with it.
func (h *HyperJoinOp) worker(int) {
	st := newColProbe(nil, &h.p)
	defer st.done()
	var sc groupScratch
	defer sc.release()
	for {
		gi, ok := h.p.claim(len(h.groups))
		if !ok || !h.runGroup(h.groups[gi], st, &sc) {
			return
		}
	}
}

// groupScratch is a hyper-join worker's build scratch: a block's key
// hashes and the selection of its rows the group keeps.
type groupScratch struct {
	hv  []uint64
	sel []int32
}

func (sc *groupScratch) release() {
	hashPool.Put(sc.hv)
	idxPool.Put(sc.sel)
}

// runGroup executes one group of the §4.1 algorithm: build a join table
// over the group's R blocks, probe it with every overlapping S block,
// gathering matches into the worker's pending output batch st, which
// sends each batch as it fills. Returns false when the operator was
// closed or a referenced block is missing (recorded as the stream's
// error).
//
// A group is a one-partition hash join over block columns: the R
// blocks' surviving rows are gathered into one columnar store of the
// kept build columns with their Hash64Column hashes and chained
// (newColPart), and every S block is probed in place — a selection
// over a view of the block's kept vectors —
// through the head pass, chain walks and pair-gather emission of coljoin.go,
// so output batches are columnar (R columns, then S columns, or the
// reverse with buildIsRight) and no row is boxed.
func (h *HyperJoinOp) runGroup(group []int, st *colProbe, sc *groupScratch) bool {
	// The group's task runs where its first R block lives. Block metadata
	// knows the group's exact row count up front, so the store (recycled
	// storage, like its hashes) never regrows.
	node := h.e.taskNode(h.rRefs[group[0]])
	est := 0
	for _, i := range group {
		est += h.rRefs[i].Count
	}
	gj := onePartJoin(h.e, keptIndex(h.rKeep, h.rCol), keptIndex(h.sKeep, h.sCol), h.buildIsRight)
	var store *tuple.Columns
	var hashes []uint64
	for _, i := range group {
		cols, local, err := h.e.getBlock(h.rRefs[i].Path, node)
		if err != nil {
			recycle.PutStore(store)
			hashPool.Put(hashes)
			h.p.fail(err)
			return false
		}
		h.e.Meter.AddBuild(cols.FullLen(), local)
		if cols.FullLen() == 0 {
			continue
		}
		kept := cols.View(h.rKeep, nil)
		if store == nil {
			store, hashes = recycle.GetStore(kept, est), hashPool.Get(est)
		}
		// NULL never equals NULL in a join: rows of a key column that can
		// hold one keep only their non-NULL keys.
		key := cols.Col(h.rCol)
		nullable := key.Valid() != nil || key.Boxed() != nil
		hv := cols.Hash64Column(h.rCol, hashPool.Fit(sc.hv, cols.FullLen()))
		sc.hv = hv
		if len(h.rPreds) == 0 && !nullable {
			store.AppendRange(kept, 0, cols.FullLen())
			hashes = append(hashes, hv...)
			continue
		}
		scratch := idxPool.Fit(sc.sel, cols.FullLen())
		var sel []int32
		if len(h.rPreds) > 0 {
			sel = predicate.FilterSel(h.rPreds, cols, nil, scratch)
		} else {
			sel = selectedRows(cols, scratch)
		}
		if nullable {
			m := 0
			for _, r := range sel {
				if key.IsValid(int(r)) {
					sel[m] = r
					m++
				}
			}
			sel = sel[:m]
		}
		sc.sel = sel[:0]
		store.AppendGather(kept, sel)
		for _, r := range sel {
			hashes = append(hashes, hv[r])
		}
	}
	gj.sealOne(store, hashes)
	// Probe phase: only overlapping S blocks.
	union := hyperjoin.Union(h.plan.V, group)
	probed := 0
	st.j = gj
	// Hand the group's table back and drop the last block view with the
	// group, not at the worker's next group: every pair that indexes the
	// table has been gathered by then.
	defer func() {
		gj.dropBuild()
		st.j, st.cols = nil, nil
	}()
	for _, j := range union.Ones() {
		if j >= len(h.sRefs) {
			break
		}
		cols, local, err := h.e.getBlock(h.sRefs[j].Path, node)
		if err != nil {
			h.p.fail(err)
			return false
		}
		h.e.Meter.AddProbe(cols.FullLen(), local)
		probed++
		if gj.buildRows == 0 {
			continue // nothing can match; the read is still metered
		}
		var sel []int32
		if len(h.sPreds) > 0 {
			sel = predicate.FilterSel(h.sPreds, cols, nil, idxPool.Fit(sc.sel, cols.FullLen()))
			sc.sel = sel[:0]
		}
		// No partition of a group is ever spilled, so the head pass touches
		// neither a spiller nor the skip counter.
		gj.probeColsBatch(cols.View(h.sKeep, sel), st, nil, nil)
		// Pairs index this block's vectors: gather them before moving on.
		st.flush()
		if !st.ok {
			return false
		}
	}
	h.statsMu.Lock()
	h.stats.BuildBlocks += len(group)
	h.stats.ProbeBlocks += probed
	h.statsMu.Unlock()
	return true
}

func (h *HyperJoinOp) Next() (*Batch, error) {
	b, err := h.p.next()
	if b == nil && err == nil {
		h.finish()
	}
	return b, err
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
	h.e.Meter.AddResultRows(int(h.p.rows.Load()))
}

func (h *HyperJoinOp) Close() error {
	h.p.close()
	return nil
}
