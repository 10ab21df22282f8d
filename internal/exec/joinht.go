// The row-keyed join hash table: u64 hash → chained row indices over
// flat entry storage, fed by chunked accumulation buffers. It serves the
// joins whose build side arrives as boxed rows — the spill second pass
// (loadAndProbe, chunkedJoin) and HashJoinRows; the first-pass hash
// join and the hyper-join groups build columnar tables instead
// (coljoin.go).
//
// The previous join core keyed a map[string][]tuple.Tuple on each key's
// binary encoding, which paid an encode pass plus a slice allocation per
// distinct key on build and a string hash per row on probe. joinTable
// replaces that with value.Hash64 keys, a power-of-two bucket array of
// chain heads, and an int32 next-link per entry — zero allocations per
// key, and collision safety via an exact value.Equal check on probe.
package exec

import (
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// joinChunkSize is the entry capacity of one accumulation chunk (~72 KB
// per chunk): large enough to amortize allocation, small enough that a
// mostly-empty radix partition wastes little.
const joinChunkSize = 1024

// joinEntry is one build-side row: its precomputed key hash and the
// row. The key value itself is not stored — the hash pre-check makes
// key comparisons rare, and on a probable match the row is about to be
// loaded for output anyway — keeping entries at 32 bytes so a build
// side is cheap to store and cheap for the GC to scan.
type joinEntry struct {
	hash uint64
	row  tuple.Tuple
}

// joinBuf accumulates build-side rows in fixed-size chunks: appending
// never moves existing entries and allocates only when a chunk fills.
// Not safe for concurrent use — each second-pass load owns its own.
type joinBuf struct {
	chunks [][]joinEntry
	n      int
}

// add records one build row under its key's precomputed hash. Callers
// must skip null join keys before hashing: NULL never equals NULL in a
// join (lookup guards the probe side).
func (p *joinBuf) add(h uint64, row tuple.Tuple) {
	if k := len(p.chunks); k == 0 || len(p.chunks[k-1]) == joinChunkSize {
		p.chunks = append(p.chunks, make([]joinEntry, 0, joinChunkSize))
	}
	k := len(p.chunks) - 1
	p.chunks[k] = append(p.chunks[k], joinEntry{hash: h, row: row})
	p.n++
}

// joinTable is the sealed, probe-ready table. buckets[h&mask] holds the
// 1-based index of the first entry whose hash falls in that bucket
// (0 = empty); next links entries within a bucket the same way. Indexes
// are int32 — a single table is bounded by the build side of one join
// (or one radix partition of it), far below 2³¹ rows.
//
// Sealed tables are immutable, so any number of probe workers may read
// one concurrently.
type joinTable struct {
	entries []joinEntry
	buckets []int32
	next    []int32
	mask    uint64
	col     int // key column of the build rows
	grows   int // bucket-array rehashes since creation (incremental mode)
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

// newJoinTable seals an accumulation buffer into a table. Entry storage
// is compacted into one exact-size flat slice — the copy is a tiny,
// cache-friendly fraction of probe cost — and the bucket array is sized
// to the next power of two ≥ the row count, for load factor ≤ 1.
func newJoinTable(col int, buf *joinBuf) *joinTable {
	n := buf.n
	t := &joinTable{col: col}
	if n == 0 {
		return t
	}
	entries := make([]joinEntry, 0, n)
	for _, c := range buf.chunks {
		entries = append(entries, c...)
	}
	nb := tableBuckets(n)
	t.entries = entries
	t.buckets = make([]int32, nb)
	t.next = make([]int32, n)
	t.mask = uint64(nb - 1)
	for i := range entries {
		b := entries[i].hash & t.mask
		t.next[i] = t.buckets[b]
		t.buckets[b] = int32(i + 1)
	}
	return t
}

// newJoinTableCap returns an empty table ready for incremental insert,
// with buckets pre-sized to 2× the capacity hint: any estimate within
// 2× of the true row count (high or low) yields zero rehash-grows,
// the property TestJoinTableCapNoGrow pins. Used by the builder that
// inserts as rows arrive instead of sealing a buffer (HashJoinRows).
func newJoinTableCap(col, capHint int) *joinTable {
	if capHint < 1 {
		capHint = 1
	}
	nb := 1
	for nb < 2*capHint {
		nb <<= 1
	}
	return &joinTable{
		col:     col,
		entries: make([]joinEntry, 0, capHint),
		buckets: make([]int32, nb),
		next:    make([]int32, 0, capHint),
		mask:    uint64(nb - 1),
	}
}

// insert adds one build row to an incremental table, growing the bucket
// array (rebuilding chains) when load factor exceeds 1. Callers must
// skip null join keys. Only valid on tables from newJoinTableCap.
func (t *joinTable) insert(h uint64, row tuple.Tuple) {
	if len(t.entries) >= len(t.buckets) {
		nb := len(t.buckets) * 2
		t.buckets = make([]int32, nb)
		t.mask = uint64(nb - 1)
		t.next = t.next[:len(t.entries)]
		for i := range t.entries {
			b := t.entries[i].hash & t.mask
			t.next[i] = t.buckets[b]
			t.buckets[b] = int32(i + 1)
		}
		t.grows++
	}
	t.entries = append(t.entries, joinEntry{hash: h, row: row})
	b := h & t.mask
	t.next = append(t.next, t.buckets[b])
	t.buckets[b] = int32(len(t.entries))
}

// len reports the number of build rows in the table.
func (t *joinTable) len() int { return len(t.entries) }

// lookup starts a scan over build rows matching key under its
// precomputed hash. Null probe keys match nothing.
func (t *joinTable) lookup(h uint64, key value.Value) joinIter {
	if len(t.entries) == 0 || key.IsNull() {
		return joinIter{}
	}
	return joinIter{t: t, hash: h, key: key, idx: t.buckets[h&t.mask]}
}

// joinIter walks one bucket chain, yielding the build rows whose key
// equals the probe key: the hash pre-check skips chain neighbours
// cheaply and value.Equal defeats genuine hash collisions. The zero
// joinIter is an empty stream.
type joinIter struct {
	t    *joinTable
	hash uint64
	key  value.Value
	idx  int32
}

// next returns the next matching build row, or ok=false at chain end.
func (it *joinIter) next() (tuple.Tuple, bool) {
	for it.idx != 0 {
		e := &it.t.entries[it.idx-1]
		it.idx = it.t.next[it.idx-1]
		if e.hash == it.hash && value.Equal(e.row[it.t.col], it.key) {
			return e.row, true
		}
	}
	return nil, false
}
