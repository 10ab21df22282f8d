// The hash join's build and probe: vectorized build, batch hashing, a
// probe that walks chains one level at a time, and gathered columnar
// emission.
//
//   - build workers route each incoming batch once — hash the key
//     column (Hash64Column), queue every row under its partition — and
//     then append each touched partition's rows to their per-partition
//     columnar store (tuple.Columns) with one gather per column;
//   - sealing bulk-merges the worker stores into ONE global store, one
//     chain-link vector over its rows and a bucket directory per
//     partition (colPart) — match pairs from any partition can then
//     gather from a single store;
//   - probe workers run a head pass over each batch (probeHeads: NULLs
//     skipped, rows of demoted partitions routed to their runs, each
//     row with a non-empty bucket kept as a candidate), then one chain
//     walk that compares every candidate with its current chain entry,
//     one level per round — flat == for int-class and string keys,
//     FloatEqual for floats, boxed buildKeyEq for mixed-kind columns;
//   - matches accumulate as (build row, probe row) index pairs and are
//     gathered column-at-a-time into the worker's one pending output
//     batch, which leaves only when it holds DefaultBatchSize rows or
//     the worker's stream ends, so per-batch costs downstream are paid
//     once per 1024 rows rather than once per probe batch.
//
// Build stores grow with the rows that arrive. The planner's estimate
// (JoinOptions.BuildRowsEst) steers only the radix fan-out: it never
// reserves memory or sizes a filter, so a wrong estimate costs no
// allocation in proportion to its error. Every store, hash, link and
// bucket vector here, and each worker's scratch, is recycled storage
// (internal/recycle): it is taken from the pools as it is needed and
// handed back once nothing reads it — a worker's buffers at seal, the
// sealed table at Close or the second pass, a scratch vector when its
// worker exits.
//
// Under a memory budget, demoted partitions stream rows to run files —
// queued per partition and gathered once per batch — and the second
// pass joins them with the same one-partition table and probe a
// hyper-join group uses (spill.go).
package exec

import (
	"math/bits"

	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// colBuf is one build worker's private slice of one partition: hashes
// plus a columnar store, appended without locks. Both are recycled
// storage that grows by moving into recycled storage twice the size,
// the outgrown storage going back to the pools.
type colBuf struct {
	hashes []uint64
	store  *tuple.Columns
}

// addGather retains src's physical rows idxs, in order, under their key
// hashes hv[i]: one gather per column, then one over the hashes.
func (b *colBuf) addGather(src *tuple.Columns, hv []uint64, idxs []int32) {
	if len(idxs) == 0 {
		return
	}
	n := b.len() + len(idxs)
	b.store = recycle.GrowStore(b.store, src, n)
	b.hashes = hashPool.Grow(b.hashes, n)
	b.store.AppendGather(src, idxs)
	for _, i := range idxs {
		b.hashes = append(b.hashes, hv[i])
	}
}

func (b *colBuf) len() int { return len(b.hashes) }

// reset drops the rows but keeps capacity for the next eviction cycle.
func (b *colBuf) reset() {
	b.hashes = b.hashes[:0]
	if b.store != nil {
		recycle.EmptyStore(b.store)
	}
}

// release hands the buffer's storage back to the pools.
func (b *colBuf) release() {
	recycle.PutStore(b.store)
	hashPool.Put(b.hashes)
	*b = colBuf{}
}

// releaseBufs hands back every worker's partition buffers.
func releaseBufs(bufs [][]colBuf) {
	for wi := range bufs {
		for p := range bufs[wi] {
			bufs[wi][p].release()
		}
	}
}

// colPart is one radix partition's bucket directory over the global
// build store: a power-of-two array of chain heads, each a 1-based
// global store row (0 = empty). A row's bucket is the top bits of its
// remixed hash (slot), so it depends on every hash bit: neither the
// radix bits a partition shares nor the low bits a hash exchange routes
// on (hash % nodes) can leave buckets unused. Chains continue through
// the build's one next vector.
type colPart struct {
	buckets []int32
	shift   uint // 64 - log2(len(buckets))
}

// bucketMul is the 64-bit golden-ratio multiplier of Fibonacci hashing.
const bucketMul = 0x9e3779b97f4a7c15

// slot is the bucket of hash h: the top bits of h·bucketMul.
func (p *colPart) slot(h uint64) uint64 { return (h * bucketMul) >> p.shift }

// colBuild is the sealed columnar build side: one global store, its row
// hashes, the chain links over its rows, and a bucket directory per
// partition. Sealed before the probe phase starts; read-only (and so
// safely shared) afterwards, until release hands its storage back.
type colBuild struct {
	store  *tuple.Columns
	hashes []uint64
	next   []int32 // next[g]: the 1-based row after row g in its chain, 0 at the end
	parts  []colPart
	keyVec *tuple.ColVec // store.Col(bCol); nil while the store is empty
}

// release hands the table's storage back to the pools (nil is
// ignored). No reader may remain: every worker probing it has exited.
func (t *colBuild) release() {
	if t == nil {
		return
	}
	recycle.PutStore(t.store)
	hashPool.Put(t.hashes)
	idxPool.Put(t.next)
	for _, p := range t.parts {
		idxPool.Put(p.buckets)
	}
}

// dropBuild releases the join's sealed table.
func (j *hashJoinOp) dropBuild() {
	j.cbuild.release()
	j.cbuild = nil
}

// buildTables drains the build input, partitioning rows by hash radix
// across the worker pool (each worker owns one colBuf per partition, so
// no locks), then seals the partition tables. Each batch is routed
// once: its key column hashes vectorized, each row queues under its
// partition, and every touched partition then takes its rows in one
// gather.
//
// Under a memory budget each retained row also charges the MemBudget,
// row by row as it is queued; on pressure the best-scoring partition is
// demoted (joinSpill.pressure) and its rows — resident and future —
// stream to run files instead, each worker flushing its own share
// locklessly (spill.go).
func (j *hashJoinOp) buildTables() error {
	w := j.e.workers()
	bufs := make([][]colBuf, w)
	for i := range bufs {
		bufs[i] = make([]colBuf, j.nParts)
	}
	// Sealing merges and releases the buffers; this catches the rest,
	// after a failure or of partitions that spilled.
	defer releaseBufs(bufs)
	in := make(chan *Batch, w) // one batch queued per build worker
	var err error
	go func() {
		// Input charging happens in the exchange that feeds the join, not
		// here. No Close can race the build, so the feeder needs no done.
		err = j.feed(j.build, in, nil)
		close(in)
	}()
	j.p.run(w, func(id int) { j.buildWorker(id, bufs[id], in) })
	if cerr := j.build.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = j.p.firstErr()
	}
	if err != nil {
		return err
	}
	if j.spill != nil {
		// A partition demoted after some worker already finished leaves
		// rows stranded in that worker's buffer; flush every demoted
		// partition's leftovers now that the spilled set is frozen and
		// no worker is running.
		if err := j.spill.flushLeftovers(bufs); err != nil {
			return err
		}
	}
	j.sealColTables(bufs)
	if j.spill != nil {
		j.hasSpilled = j.spill.anySpilled()
	}
	if j.hasSpilled || j.filterSink() != nil {
		j.sealFilter()
	}
	return nil
}

// sealFilter builds the join's one key filter (bloom.go) over every
// non-NULL build key: the sealed store's hashes and those the build's
// spill streams kept, whose budget bytes it returns. Its size comes
// from their exact count. Under a budget its words stay charged until
// the join closes (joinSpill.cleanup).
func (j *hashJoinOp) sealFilter() {
	if j.spill == nil {
		j.filter = newKeyFilter(j.cbuild.hashes)
		return
	}
	kept := j.spill.takeKept()
	j.filter = newKeyFilter(append(kept, j.cbuild.hashes)...)
	j.spill.charge(int64(8 * len(j.filter.words)))
	for _, hs := range kept {
		hashPool.Put(hs)
	}
}

// buildWorker routes the build batches it takes from in into its own
// per-partition buffers my, and under a budget streams demoted
// partitions' rows to its run file. After a failure it keeps draining
// in, so the feeder never blocks.
func (j *hashJoinOp) buildWorker(id int, my []colBuf, in <-chan *Batch) {
	sp := j.spill
	var spw *partSpiller
	myBytes := make([]int64, j.nParts)
	if sp != nil {
		spw = sp.firstPassSpiller(id, false)
	}
	res := newPartQueue(j.nParts) // the batch's resident rows, per partition
	var hv []uint64
	var rowBytes []int32 // budgeted builds: the batch's per-row charges
	defer func() {
		res.release()
		hashPool.Put(hv)
		idxPool.Put(rowBytes)
	}()
	for b := range in {
		if cerr := j.e.ctxErr(); cerr != nil {
			j.p.fail(cerr)
		}
		if j.p.failing() {
			b.Release()
			continue // keep draining so the feeder never blocks
		}
		cb := b.Cols()
		hv = cb.Hash64Column(j.bCol, hashPool.Fit(hv, cb.FullLen()))
		if sp != nil {
			rowBytes = cb.MemBytesRows(idxPool.Fit(rowBytes, cb.FullLen()))
		}
		n := cb.Len()
		sel := cb.Sel()
		for k := 0; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			if cb.IsNull(j.bCol, i) {
				continue // NULL never equals NULL in a join
			}
			h := hv[i]
			p := int(h >> j.radixShift)
			if sp != nil && sp.isSpilled(p) {
				// Resident rows first — including this batch's rows of p
				// queued before its demotion — then the rest of the
				// batch's rows of p in batch order: the per-row write order.
				my[p].addGather(cb, hv, res.take(p))
				if err := spw.evict(p, &my[p], &myBytes[p]); err != nil {
					j.p.fail(err)
					break
				}
				spw.queue(p, i)
				continue
			}
			res.queue(p, i)
			if sp != nil {
				nb := int64(rowBytes[i])
				myBytes[p] += nb
				sp.noteBuildRow(p, h, nb)
				if sp.charge(nb) {
					sp.pressure()
				}
			}
		}
		res.flush(func(p int, idxs []int32) { my[p].addGather(cb, hv, idxs) })
		if spw != nil {
			if err := spw.spillBatch(cb, hv, rowBytes); err != nil {
				j.p.fail(err)
			}
		}
		b.Release()
	}
	if spw != nil {
		// Final sweep: partitions demoted after this worker last touched
		// them still hold resident rows here.
		for p := range my {
			if sp.isSpilled(p) {
				if err := spw.evict(p, &my[p], &myBytes[p]); err != nil {
					j.p.fail(err)
					break
				}
			}
		}
		if err := sp.finishFirstPass(spw, false); err != nil {
			j.p.fail(err)
		}
	}
}

// joinInput drops an empty input batch: it is released and nil
// returned, since it has nothing to route.
func joinInput(b *Batch) *Batch {
	if b.Len() == 0 {
		b.Release()
		return nil
	}
	return b
}

// sealColTables merges every worker's per-partition stores into one
// global store (bulk column concatenation — flat memmoves for typed
// vectors) and chains each partition's rows under its bucket directory.
// Each table's buckets are sized from the partition's exact row count.
// Each buffer goes back to the pools as soon as it is merged. Runs
// single-threaded: the merge is memmove-bound and partition chains
// index disjoint ranges.
func (j *hashJoinOp) sealColTables(bufs [][]colBuf) {
	cb := &colBuild{parts: make([]colPart, j.nParts)}
	total := 0
	var like *tuple.Columns // a merged buffer's store: the table's shape
	for wi := range bufs {
		for p := range bufs[wi] {
			b := &bufs[wi][p]
			total += b.len()
			if b.store != nil && b.store.NumCols() > 0 {
				like = b.store
			}
		}
	}
	j.cbuild = cb
	j.buildRows = total
	if total == 0 {
		return
	}
	store := recycle.GetStore(like, total)
	hashes := hashPool.Get(total)
	next := idxPool.Zeroed(total)
	for p := 0; p < j.nParts; p++ {
		base := len(hashes)
		for wi := range bufs {
			b := &bufs[wi][p]
			if b.len() == 0 {
				continue
			}
			store.AppendColumns(b.store)
			hashes = append(hashes, b.hashes...)
			b.release()
		}
		n := len(hashes) - base
		if n == 0 {
			continue // empty or spilled partition: zero colPart, probe skips
		}
		cb.parts[p] = newColPart(hashes, next, base)
	}
	cb.store = store
	cb.hashes = hashes
	cb.next = next
	cb.keyVec = store.Col(j.bCol)
}

// tableBuckets picks a sealed table's bucket count: the next power of
// two ≥ its row count n, for load factor ≤ 1. Sealed tables know their
// exact size, so no estimate enters.
func tableBuckets(n int) int {
	nb := 1
	for nb < n {
		nb <<= 1
	}
	return nb
}

// newColPart chains the store rows [base, len(hashes)) into one
// partition's bucket directory, sized from the row count (tableBuckets),
// writing their links into next. Later rows head their chains.
func newColPart(hashes []uint64, next []int32, base int) colPart {
	nb := tableBuckets(len(hashes) - base)
	part := colPart{buckets: idxPool.Zeroed(nb), shift: uint(64 - bits.TrailingZeros(uint(nb)))}
	for g := base; g < len(hashes); g++ {
		s := part.slot(hashes[g])
		next[g] = part.buckets[s]
		part.buckets[s] = int32(g + 1)
	}
	return part
}

// onePartJoin is a one-partition hash join: a hyper-join group, or one
// second-pass load of a spilled partition. The caller seals its build
// (sealOne) and drives probeColsBatch itself, through a colProbe whose
// sink is the operator the output belongs to.
func onePartJoin(e *Executor, bCol, pCol int, buildIsRight bool) *hashJoinOp {
	return &hashJoinOp{
		e: e, bCol: bCol, pCol: pCol, opts: JoinOptions{BuildIsRight: buildIsRight},
		// One partition: every hash shifts to partition 0.
		radixShift: 64, nParts: 1,
	}
}

// sealOne installs store, whose rows hash to hashes, as the join's one
// partition; the table owns both from here and dropBuild hands them
// back. An empty store is handed back at once and leaves the join with
// nothing to match.
func (j *hashJoinOp) sealOne(store *tuple.Columns, hashes []uint64) {
	if j.buildRows = len(hashes); j.buildRows == 0 {
		recycle.PutStore(store)
		hashPool.Put(hashes)
		return
	}
	next := idxPool.Zeroed(len(hashes))
	j.cbuild = &colBuild{
		store: store, hashes: hashes, next: next, keyVec: store.Col(j.bCol),
		parts: []colPart{newColPart(hashes, next, 0)},
	}
}

// colProbe is one probe worker's match accumulator: (build row, probe
// row) index pairs, gathered into one pending output batch that is
// carried across probe batches — and, for a hyper-join worker or a
// second-pass worker, across groups and spill frames, with j swapped to
// each unit's one-partition join. The batch goes to sink when it holds
// exactly DefaultBatchSize rows, and the remainder at done, when the
// worker's stream ends. sink is the pool of the operator the output
// belongs to: the hash join's own, or the hyper-join's. Its vectors are
// recycled scratch, handed back at done.
type colProbe struct {
	j     *hashJoinOp // the join being probed: build store and column order
	sink  *pool
	hv    []uint64
	rows  []int32        // probe candidates: physical rows in cols
	ents  []int32        // each candidate's current chain entry, a 1-based global row
	bIdxs []int32        // global rows in j.cbuild.store
	pIdxs []int32        // physical rows in cols
	cols  *tuple.Columns // current probe batch
	out   *Batch         // pending output, fewer than DefaultBatchSize rows
	ok    bool           // false once the consumer closed the stream
}

func newColProbe(j *hashJoinOp, sink *pool) *colProbe {
	return &colProbe{
		j: j, sink: sink, ok: true,
		bIdxs: idxPool.Get(DefaultBatchSize), pIdxs: idxPool.Get(DefaultBatchSize),
	}
}

func (st *colProbe) addPair(b, p int32) {
	st.bIdxs = append(st.bIdxs, b)
	st.pIdxs = append(st.pIdxs, p)
	if len(st.bIdxs) >= DefaultBatchSize {
		st.flush()
	}
}

// flush gathers the accumulated pairs into the pending output batch:
// build columns from j's store, probe columns from the current batch,
// each column copied in a monomorphic loop, in chunks of at most the
// room left so the batch never outgrows the pool. A batch that fills is
// sent. Must run before the probe batch (block, frame) is released and
// before j is swapped: gathered output owns its storage, the pair
// indices do not.
func (st *colProbe) flush() {
	n := len(st.bIdxs)
	if n == 0 {
		return
	}
	j := st.j
	bs := j.cbuild.store
	nb, np := bs.NumCols(), st.cols.NumCols()
	bOff, pOff := 0, nb
	if j.opts.BuildIsRight {
		bOff, pOff = np, 0
	}
	for done := 0; done < n && st.ok; {
		if st.out == nil {
			st.out = NewColBatch(nb + np)
		}
		oc := st.out.Cols()
		k := min(n-done, DefaultBatchSize-oc.FullLen())
		bi, pi := st.bIdxs[done:done+k], st.pIdxs[done:done+k]
		for c := 0; c < nb; c++ {
			oc.AppendColumnGather(bOff+c, bs, c, bi)
		}
		for c := 0; c < np; c++ {
			oc.AppendColumnGather(pOff+c, st.cols, c, pi)
		}
		oc.AddRows(k)
		done += k
		if oc.FullLen() == DefaultBatchSize {
			full := st.out
			st.out = nil
			st.ok = st.sink.send(full)
		}
	}
	st.bIdxs, st.pIdxs = st.bIdxs[:0], st.pIdxs[:0]
}

// done ends the worker's output (emit) and hands its scratch back.
func (st *colProbe) done() {
	st.emit()
	hashPool.Put(st.hv)
	for _, s := range [][]int32{st.rows, st.ents, st.bIdxs, st.pIdxs} {
		idxPool.Put(s)
	}
	*st = colProbe{}
}

// emit ends the worker's output: the pending remainder is sent, or
// released when the consumer has closed the stream or the join failed.
func (st *colProbe) emit() {
	out := st.out
	if out == nil {
		return
	}
	st.out = nil
	if !st.ok || st.sink.failing() {
		out.Release()
		return
	}
	st.ok = st.sink.send(out)
}

// probeWorker streams probe batches through the partition tables
// (probeColsBatch) and gathers matches into the worker's pending output
// batch, which it emits once the probe input drains, so the stream
// ends only after every worker's remainder is sent. The worker owns its colProbe
// exclusively, so output batches are never written by two goroutines.
func (j *hashJoinOp) probeWorker(id int, in <-chan *Batch) {
	var spw *partSpiller
	skipped := int64(0)
	if j.hasSpilled {
		spw = j.spill.firstPassSpiller(id, true)
		defer func() {
			if skipped > 0 {
				j.spill.skipped.Add(skipped)
			}
			if err := j.spill.finishFirstPass(spw, true); err != nil {
				j.p.fail(err)
			}
		}()
	}
	st := newColProbe(j, &j.p)
	defer st.done()
	for pb := range in {
		if cerr := j.e.ctxErr(); cerr != nil {
			j.p.fail(cerr)
		}
		if (j.buildRows == 0 && spw == nil) || j.p.failing() {
			pb.Release() // metered by the exchange; nothing can match
			continue
		}
		j.probeColsBatch(pb.Cols(), st, spw, &skipped)
		// Gather pending pairs BEFORE the probe batch's storage recycles:
		// pair indices address it, the gathered output does not.
		st.flush()
		st.cols = nil
		pb.Release()
		if !st.ok {
			// Consumer closed (send failed): the feeder releases the
			// remaining batches.
			return
		}
	}
}

// spillRouteCol queues physical row i, a probe row of a spilled
// partition, for the run beside the partition's build runs (rows the
// join's filter rejects skip the round-trip entirely); probeColsBatch
// writes the queues once the batch is routed.
func (j *hashJoinOp) spillRouteCol(spw *partSpiller, part int, h uint64, i int, skipped *int64) {
	if !j.filter.mayPass(h) {
		*skipped++
		return
	}
	spw.queue(part, i)
}

// probeColsBatch probes one columnar batch. The key column is hashed
// vectorized, the head pass (probeHeads) finds every row's chain, and
// then one chain walk runs, chosen by how the probe key's storage lines
// up with the build key vector: == on flat int-class or string keys,
// FloatEqual on flat floats, or boxed buildKeyEq for mixed-kind columns
// and kind mismatches (hash salts make cross-kind matches impossible,
// but collisions still need an exact compare).
func (j *hashJoinOp) probeColsBatch(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	st.cols = cb
	st.hv = cb.Hash64Column(j.pCol, hashPool.Fit(st.hv, cb.FullLen()))
	j.probeHeads(cb, st, spw, skipped)
	if len(st.rows) > 0 {
		t := j.cbuild
		kt, kp := t.keyVec, cb.Col(j.pCol)
		flat := kp.Boxed() == nil && kt.Boxed() == nil && kp.Kind() == kt.Kind()
		switch {
		case flat && value.IntClass(kt.Kind()):
			walkEq(st, t, nil, kp.Ints(), kt.Ints())
		case flat && kt.Kind() == value.String:
			walkEq(st, t, t.hashes, kp.Strs(), kt.Strs())
		case flat && kt.Kind() == value.Float:
			walkFloats(st, t, kp.Floats(), kt.Floats())
		default:
			walkBoxed(st, t, j.pCol)
		}
	}
	if spw != nil {
		if err := spw.spillBatch(cb, nil, nil); err != nil {
			j.p.fail(err)
		}
	}
}

// probeHeads is the probe's first pass over a batch: it skips NULL
// keys, routes rows of demoted partitions to their runs, and keeps each
// row whose bucket is not empty as a candidate — its physical row in
// st.rows, its chain head in st.ents. The append is unconditional and
// only the length advances, so no branch depends on the bucket.
func (j *hashJoinOp) probeHeads(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	n := cb.Len()
	st.rows, st.ents = idxPool.Fit(st.rows, n), idxPool.Fit(st.ents, n)
	rows, ents := st.rows[:n], st.ents[:n]
	parts, hv, sel, shift := j.cbuild.parts, st.hv, cb.Sel(), j.radixShift
	kp := cb.Col(j.pCol)
	hasNull := kp.Valid() != nil || kp.Boxed() != nil
	m := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if hasNull && !kp.IsValid(i) {
			continue // NULL never equals NULL in a join
		}
		h := hv[i]
		part := int(h >> shift)
		if spw != nil && j.spill.isSpilled(part) {
			j.spillRouteCol(spw, part, h, i, skipped)
			continue
		}
		p := &parts[part]
		if len(p.buckets) == 0 {
			continue
		}
		e := p.buckets[p.slot(h)]
		rows[m], ents[m] = int32(i), e
		m += b2i(e != 0)
	}
	st.rows, st.ents = rows[:m], ents[:m]
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// The chain walks probe every candidate one chain level per round: each
// round compares each candidate row with its current chain entry, adds
// the pair on a match, moves the candidate one link down its chain and
// compacts the list to the candidates whose chain goes on. Rounds touch
// independent rows, so their loads overlap instead of waiting on one
// chain's links. A row's matches still come out in chain order.

// walkEq is the chain walk for keys compared with ==: flat int-class
// and string columns of one kind. Equal keys of one kind hash alike, so
// the key compare alone decides; bh, when set, is a hash pre-check in
// front of it — strings pass the build hashes so that a collision costs
// no byte compare, while an int compare is cheaper than the hash load.
func walkEq[T int64 | string](st *colProbe, t *colBuild, bh []uint64, keys, bkeys []T) {
	rows, ents := st.rows, st.ents
	next, hv := t.next, st.hv
	for len(rows) > 0 {
		m := 0
		for c, i := range rows {
			g := ents[c] - 1
			if (bh == nil || bh[g] == hv[i]) && bkeys[g] == keys[i] {
				st.addPair(g, i)
			}
			e := next[g]
			rows[m], ents[m] = i, e
			m += b2i(e != 0)
		}
		rows, ents = rows[:m], ents[:m]
	}
}

// walkFloats is the chain walk for flat float keys, equal under
// FloatEqual (NaNs equal, ±0 equal).
func walkFloats(st *colProbe, t *colBuild, keys, bkeys []float64) {
	rows, ents := st.rows, st.ents
	bh, next, hv := t.hashes, t.next, st.hv
	for len(rows) > 0 {
		m := 0
		for c, i := range rows {
			g := ents[c] - 1
			if bh[g] == hv[i] && value.FloatEqual(bkeys[g], keys[i]) {
				st.addPair(g, i)
			}
			e := next[g]
			rows[m], ents[m] = i, e
			m += b2i(e != 0)
		}
		rows, ents = rows[:m], ents[:m]
	}
}

// walkBoxed is the chain walk for the shapes the flat walks can't take:
// a boxed (mixed-kind) key vector on either side, or probe and build
// keys of different kinds. Each compare boxes the probe key (column
// pCol of the probe batch) and runs buildKeyEq.
func walkBoxed(st *colProbe, t *colBuild, pCol int) {
	rows, ents := st.rows, st.ents
	bh, next, hv := t.hashes, t.next, st.hv
	for len(rows) > 0 {
		m := 0
		for c, i := range rows {
			g := ents[c] - 1
			if bh[g] == hv[i] && buildKeyEq(t.keyVec, g, st.cols.Value(pCol, int(i))) {
				st.addPair(g, i)
			}
			e := next[g]
			rows[m], ents[m] = i, e
			m += b2i(e != 0)
		}
		rows, ents = rows[:m], ents[:m]
	}
}

// buildKeyEq compares build store row g's key against a boxed probe
// key, with Equal's semantics (kinds must match; NaNs equal; ±0 equal).
func buildKeyEq(kt *tuple.ColVec, g int32, key value.Value) bool {
	if bx := kt.Boxed(); bx != nil {
		return value.Equal(bx[g], key)
	}
	if !kt.IsValid(int(g)) {
		return false // null build keys are never inserted, but stay exact
	}
	switch k := kt.Kind(); {
	case value.IntClass(k):
		return key.K == k && kt.Ints()[g] == key.I
	case k == value.Float:
		return key.K == value.Float && value.FloatEqual(kt.Floats()[g], key.F)
	case k == value.String:
		return key.K == value.String && kt.Str(int(g)) == key.S
	default:
		return false
	}
}
