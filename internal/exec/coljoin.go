// The hash join's build and probe: vectorized build, batch hashing,
// kind-specialized probe, and gathered columnar emission.
//
//   - build workers route each incoming batch once — hash the key
//     column (Hash64Column), queue every row under its partition — and
//     then append each touched partition's rows to their per-partition
//     columnar store (tuple.Columns) with one gather per column;
//   - sealing bulk-merges the worker stores into ONE global store plus
//     per-partition chained hash tables over global row indices — match
//     pairs from any partition can then gather from a single store;
//   - probe workers compare keys flat (int64 ==, FloatEqual, byte
//     equality) against the store's key vector, falling back to boxed
//     compares only for mixed-kind columns;
//   - matches accumulate as (build row, probe row) index pairs and are
//     gathered column-at-a-time into columnar output batches.
//
// Build stores grow with the rows that arrive. The planner's estimate
// (JoinOptions.BuildRowsEst) steers only the radix fan-out and the
// Bloom filters of demoted partitions: it never reserves memory, so a
// wrong estimate costs no allocation in proportion to its error.
//
// Under a memory budget, demoted partitions stream rows to run files —
// queued per partition and gathered once per batch — and the second
// pass joins them with the same one-partition table and probe loops a
// hyper-join group uses (spill.go).
package exec

import (
	"sync"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// colBuf is one build worker's private slice of one partition: hashes
// plus a columnar store, appended without locks and grown by append as
// rows arrive.
type colBuf struct {
	hashes []uint64
	store  *tuple.Columns
}

func (b *colBuf) init(ncols int) {
	if b.store == nil {
		b.store = tuple.NewColumns(ncols)
	}
}

// addGather retains src's physical rows idxs, in order, under their key
// hashes hv[i]: one gather per column, then one over the hashes.
func (b *colBuf) addGather(src *tuple.Columns, hv []uint64, idxs []int32) {
	if len(idxs) == 0 {
		return
	}
	b.init(src.NumCols())
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
		b.store.Reset(b.store.NumCols())
	}
}

// colPart is one radix partition's hash table over the global build
// store: a bucket-headed chain keyed by hash, entries 1-based within
// the partition's contiguous [base, base+n) row range.
type colPart struct {
	base    int32
	buckets []int32 // 1-based entry index, 0 = empty
	next    []int32 // chain links, 1-based, indexed by entry-1
	mask    uint64
}

// colBuild is the sealed columnar build side: one global store, its row
// hashes, and a chained table per partition. Sealed before the probe
// phase starts; read-only (and so safely shared) afterwards.
type colBuild struct {
	store  *tuple.Columns
	hashes []uint64
	parts  []colPart
	keyVec *tuple.ColVec // store.Col(bCol); nil while the store is empty
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
	w := j.workerCount()
	bufs := make([][]colBuf, w)
	in := make(chan *Batch, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		bufs[i] = make([]colBuf, j.nParts)
		wg.Add(1)
		go func(id int, my []colBuf) {
			defer wg.Done()
			sp := j.spill
			var spw *partSpiller
			myBytes := make([]int64, j.nParts)
			if sp != nil {
				spw = sp.firstPassSpiller(id, false)
			}
			res := newPartQueue(j.nParts) // the batch's resident rows, per partition
			var hv []uint64
			var rowBytes []int32 // budgeted builds: the batch's per-row charges
			for b := range in {
				if cerr := j.e.ctxErr(); cerr != nil {
					j.fail(cerr)
				}
				if j.failed.Load() {
					b.Release()
					continue // keep draining so the feeder never blocks
				}
				cb := b.Cols()
				hv = cb.Hash64Column(j.bCol, hv)
				if sp != nil {
					rowBytes = cb.MemBytesRows(rowBytes)
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
						// Resident rows first — including this batch's
						// rows of p queued before its demotion — then
						// the rest of the batch's rows of p in batch
						// order: the per-row write order.
						my[p].addGather(cb, hv, res.take(p))
						if err := spw.evict(p, &my[p], &myBytes[p]); err != nil {
							j.fail(err)
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
						j.fail(err)
					}
				}
				b.Release()
			}
			if spw != nil {
				// Final sweep: partitions demoted after this worker last
				// touched them still hold resident rows here.
				for p := range my {
					if sp.isSpilled(p) {
						if err := spw.evict(p, &my[p], &myBytes[p]); err != nil {
							j.fail(err)
							break
						}
					}
				}
				if err := sp.finishFirstPass(spw, false); err != nil {
					j.fail(err)
				}
			}
		}(i, bufs[i])
	}
	// A single goroutine owns build.Next (operators need not be
	// concurrency-safe); input charging happens in the chargeRows
	// wrappers JoinOp installed, not here.
	var err error
	for {
		if cerr := j.e.ctxErr(); cerr != nil {
			j.fail(cerr) // workers drop in-flight batches instead of retaining rows
			err = cerr
			break
		}
		b, berr := j.build.Next()
		if berr != nil {
			err = berr
			break
		}
		if b == nil {
			break
		}
		if b = joinInput(b); b != nil {
			in <- b
		}
	}
	close(in)
	wg.Wait()
	if cerr := j.build.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		j.werrMu.Lock()
		err = j.werr
		j.werrMu.Unlock()
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
	return nil
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
// vectors) and chains each partition's rows into its hash table.
// Each table's buckets are sized from the partition's exact row count.
// Runs single-threaded: the merge is memmove-bound and partition chains
// index disjoint ranges.
func (j *hashJoinOp) sealColTables(bufs [][]colBuf) {
	cb := &colBuild{parts: make([]colPart, j.nParts)}
	total, ncols := 0, 0
	for wi := range bufs {
		for p := range bufs[wi] {
			b := &bufs[wi][p]
			total += b.len()
			if b.store != nil && b.store.NumCols() > 0 {
				ncols = b.store.NumCols()
			}
		}
	}
	j.cbuild = cb
	j.buildRows = total
	if total == 0 {
		return
	}
	store := tuple.NewColumns(ncols)
	store.Reserve(total)
	hashes := make([]uint64, 0, total)
	for p := 0; p < j.nParts; p++ {
		base := len(hashes)
		for wi := range bufs {
			b := &bufs[wi][p]
			if b.len() == 0 {
				continue
			}
			store.AppendColumns(b.store)
			hashes = append(hashes, b.hashes...)
			b.reset()
		}
		n := len(hashes) - base
		if n == 0 {
			continue // empty or spilled partition: zero colPart, probe skips
		}
		cb.parts[p] = newColPart(hashes, base)
	}
	cb.store = store
	cb.hashes = hashes
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
// partition's table, buckets sized from the row count (tableBuckets).
func newColPart(hashes []uint64, base int) colPart {
	n := len(hashes) - base
	nb := tableBuckets(n)
	part := colPart{
		base:    int32(base),
		buckets: make([]int32, nb),
		next:    make([]int32, n),
		mask:    uint64(nb - 1),
	}
	for e := 0; e < n; e++ {
		slot := hashes[base+e] & part.mask
		part.next[e] = part.buckets[slot]
		part.buckets[slot] = int32(e + 1)
	}
	return part
}

// onePartJoin is a one-partition hash join whose gathered output goes
// into out until done closes: a hyper-join group, or one second-pass
// load of a spilled partition. The caller seals its build (sealOne) and
// drives probeColsBatch itself.
func onePartJoin(e *Executor, bCol, pCol int, buildIsRight bool, out chan *Batch, done chan struct{}) *hashJoinOp {
	return &hashJoinOp{
		e: e, bCol: bCol, pCol: pCol, opts: JoinOptions{BuildIsRight: buildIsRight},
		// One partition: every hash shifts to partition 0.
		radixShift: 64, nParts: 1,
		out: out, done: done,
	}
}

// sealOne installs store, whose rows hash to hashes, as the join's one
// partition. An empty store leaves the join with nothing to match.
func (j *hashJoinOp) sealOne(store *tuple.Columns, hashes []uint64) {
	if j.buildRows = len(hashes); j.buildRows > 0 {
		j.cbuild = &colBuild{
			store: store, hashes: hashes, keyVec: store.Col(j.bCol),
			parts: []colPart{newColPart(hashes, 0)},
		}
	}
}

// colProbe is one probe worker's match accumulator: (build row, probe
// row) index pairs, flushed into gathered columnar output batches.
type colProbe struct {
	j     *hashJoinOp
	hv    []uint64
	bIdxs []int32        // global rows in cbuild.store
	pIdxs []int32        // physical rows in cols
	cols  *tuple.Columns // current probe batch
	ok    bool           // false once the consumer closed the stream
}

func (st *colProbe) addPair(b, p int32) {
	st.bIdxs = append(st.bIdxs, b)
	st.pIdxs = append(st.pIdxs, p)
	if len(st.bIdxs) >= DefaultBatchSize {
		st.flush()
	}
}

// flush gathers the accumulated pairs into one columnar output batch:
// build columns from the global store, probe columns from the current
// batch, each column copied in a monomorphic loop. Must run before the
// probe batch is released — gathered output owns its storage, the pair
// indices do not.
func (st *colProbe) flush() {
	n := len(st.bIdxs)
	if n == 0 {
		return
	}
	if !st.ok {
		st.bIdxs, st.pIdxs = st.bIdxs[:0], st.pIdxs[:0]
		return
	}
	j := st.j
	bs := j.cbuild.store
	nb, np := bs.NumCols(), st.cols.NumCols()
	out := NewColBatch(nb + np)
	oc := out.Cols()
	bOff, pOff := 0, nb
	if j.opts.BuildIsRight {
		bOff, pOff = np, 0
	}
	for c := 0; c < nb; c++ {
		oc.AppendColumnGather(bOff+c, bs, c, st.bIdxs)
	}
	for c := 0; c < np; c++ {
		oc.AppendColumnGather(pOff+c, st.cols, c, st.pIdxs)
	}
	oc.AddRows(n)
	st.bIdxs, st.pIdxs = st.bIdxs[:0], st.pIdxs[:0]
	if !j.send(out) {
		st.ok = false
	}
}

// probeWorker streams probe batches through the partition tables:
// batches route through kind-specialized probe loops and matches leave
// as gathered columnar batches. The worker owns its colProbe
// exclusively, so output batches are never written by two goroutines.
func (j *hashJoinOp) probeWorker(id int) {
	defer j.wg.Done()
	var spw *partSpiller
	skipped := int64(0)
	if j.hasSpilled {
		spw = j.spill.firstPassSpiller(id, true)
		defer func() {
			if skipped > 0 {
				j.spill.skipped.Add(skipped)
			}
			if err := j.spill.finishFirstPass(spw, true); err != nil {
				j.fail(err)
			}
		}()
	}
	st := &colProbe{j: j, ok: true}
	for pb := range j.in {
		if cerr := j.e.ctxErr(); cerr != nil {
			j.fail(cerr)
		}
		if (j.buildRows == 0 && spw == nil) || j.failed.Load() {
			pb.Release() // metered by the dispatcher; nothing can match
			continue
		}
		j.probeColsBatch(pb.Cols(), st, spw, &skipped)
		// Gather pending pairs BEFORE the probe batch's storage recycles:
		// pair indices address it, the gathered output does not.
		st.flush()
		st.cols = nil
		pb.Release()
		if !st.ok {
			// Consumer closed (send failed): the dispatcher releases the
			// remaining batches.
			return
		}
	}
}

// spillRouteCol queues physical row i, a probe row of a spilled
// partition, for the run beside the partition's build runs (Bloom
// negatives skip the round-trip entirely); probeColsBatch writes the
// queues once the batch is routed.
func (j *hashJoinOp) spillRouteCol(spw *partSpiller, part int, h uint64, i int, skipped *int64) {
	if !j.spill.bloomAt(part).mayContain(h) {
		*skipped++
		return
	}
	spw.queue(part, i)
}

// probeColsBatch probes one columnar batch. The key column is hashed
// vectorized, then one of four loops runs depending on how the probe
// key's storage lines up with the build key vector: flat int, flat
// float, flat string, or generic boxed.
func (j *hashJoinOp) probeColsBatch(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	st.cols = cb
	st.hv = cb.Hash64Column(j.pCol, st.hv)
	t := j.cbuild
	kt := t.keyVec
	kp := cb.Col(j.pCol)
	switch {
	case kt == nil:
		// Empty resident store: only spill routing can matter.
		if spw == nil {
			return
		}
		j.probeColGeneric(cb, st, spw, skipped)
	case kp.Boxed() == nil && kt.Boxed() == nil && kp.Kind() == kt.Kind() && value.IntClass(kt.Kind()):
		j.probeColInts(cb, st, spw, skipped)
	case kp.Boxed() == nil && kt.Boxed() == nil && kp.Kind() == kt.Kind() && kt.Kind() == value.Float:
		j.probeColFloats(cb, st, spw, skipped)
	case kp.Boxed() == nil && kt.Boxed() == nil && kp.Kind() == kt.Kind() && kt.Kind() == value.String:
		j.probeColStrings(cb, st, spw, skipped)
	default:
		j.probeColGeneric(cb, st, spw, skipped)
	}
	if spw != nil {
		if err := spw.spillBatch(cb, nil, nil); err != nil {
			j.fail(err)
		}
	}
}

func (j *hashJoinOp) probeColInts(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	t := j.cbuild
	kp := cb.Col(j.pCol)
	keys := kp.Ints()
	bkeys := t.keyVec.Ints()
	bh := t.hashes
	hv := st.hv
	sel := cb.Sel()
	n := cb.Len()
	hasNull := kp.Valid() != nil
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if hasNull && !kp.IsValid(i) {
			continue
		}
		h := hv[i]
		part := int(h >> j.radixShift)
		if spw != nil && j.spill.isSpilled(part) {
			j.spillRouteCol(spw, part, h, i, skipped)
			continue
		}
		p := &t.parts[part]
		if len(p.buckets) == 0 {
			continue
		}
		key := keys[i]
		for e := p.buckets[h&p.mask]; e != 0; {
			g := p.base + e - 1
			e = p.next[e-1]
			if bh[g] == h && bkeys[g] == key {
				st.addPair(g, int32(i))
			}
		}
	}
}

func (j *hashJoinOp) probeColFloats(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	t := j.cbuild
	kp := cb.Col(j.pCol)
	keys := kp.Floats()
	bkeys := t.keyVec.Floats()
	bh := t.hashes
	hv := st.hv
	sel := cb.Sel()
	n := cb.Len()
	hasNull := kp.Valid() != nil
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if hasNull && !kp.IsValid(i) {
			continue
		}
		h := hv[i]
		part := int(h >> j.radixShift)
		if spw != nil && j.spill.isSpilled(part) {
			j.spillRouteCol(spw, part, h, i, skipped)
			continue
		}
		p := &t.parts[part]
		if len(p.buckets) == 0 {
			continue
		}
		key := keys[i]
		for e := p.buckets[h&p.mask]; e != 0; {
			g := p.base + e - 1
			e = p.next[e-1]
			if bh[g] == h && value.FloatEqual(bkeys[g], key) {
				st.addPair(g, int32(i))
			}
		}
	}
}

func (j *hashJoinOp) probeColStrings(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	t := j.cbuild
	kp := cb.Col(j.pCol)
	keys := kp.Strs()
	bkeys := t.keyVec.Strs()
	bh := t.hashes
	hv := st.hv
	sel := cb.Sel()
	n := cb.Len()
	hasNull := kp.Valid() != nil
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if hasNull && !kp.IsValid(i) {
			continue
		}
		h := hv[i]
		part := int(h >> j.radixShift)
		if spw != nil && j.spill.isSpilled(part) {
			j.spillRouteCol(spw, part, h, i, skipped)
			continue
		}
		p := &t.parts[part]
		if len(p.buckets) == 0 {
			continue
		}
		key := keys[i]
		for e := p.buckets[h&p.mask]; e != 0; {
			g := p.base + e - 1
			e = p.next[e-1]
			if bh[g] == h && bkeys[g] == key {
				st.addPair(g, int32(i))
			}
		}
	}
}

// probeColGeneric handles the rare shapes the flat loops can't: boxed
// (mixed-kind) key vectors on either side, or kind mismatch between
// probe and build keys (hash salts make cross-kind matches impossible,
// but collisions still need an exact compare).
func (j *hashJoinOp) probeColGeneric(cb *tuple.Columns, st *colProbe, spw *partSpiller, skipped *int64) {
	t := j.cbuild
	hv := st.hv
	sel := cb.Sel()
	n := cb.Len()
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if cb.IsNull(j.pCol, i) {
			continue
		}
		h := hv[i]
		part := int(h >> j.radixShift)
		if spw != nil && j.spill.isSpilled(part) {
			j.spillRouteCol(spw, part, h, i, skipped)
			continue
		}
		if t.keyVec == nil {
			continue
		}
		p := &t.parts[part]
		if len(p.buckets) == 0 {
			continue
		}
		key := cb.Value(j.pCol, i)
		for e := p.buckets[h&p.mask]; e != 0; {
			g := p.base + e - 1
			e = p.next[e-1]
			if t.hashes[g] == h && buildKeyEq(t.keyVec, g, key) {
				st.addPair(g, int32(i))
			}
		}
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
