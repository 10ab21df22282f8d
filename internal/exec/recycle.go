// Hash-join memory recycling. A hash join's storage has an owner that
// outlives the join: the per-worker partition buffers, the sealed table
// (store, hashes, chain links, bucket directories), hyper-join group
// tables, second-pass loads, run-writer pending buffers and the probe
// and build workers' scratch vectors all come from the size-classed
// pools here and go back at the first point nothing can read them, so a
// join reuses what an earlier join dropped instead of allocating it
// afresh and leaving it to the collector.
//
// Class k holds storage of at least 1<<k rows. A get for n rows takes
// from the smallest class that holds n, or allocates that class's full
// size; a put files storage under the largest class its capacity
// covers, so a later get of the same size finds it. Classes are powers
// of two: storage grows by doubling, and finer classes would spread it
// over more pools, each hit less often. Column stores are pooled by
// shape too — the payload vector of each column — so a recycled store
// adopts every column into a vector it already has. Each class is a
// sync.Pool: the collector empties what two cycles find unused, so the
// pools need no bound or setting of their own. Budget accounting is
// untouched: MemBudget charges row bytes as it always has, whatever
// capacity the storage behind them has.
//
// Returned storage belongs to the pool: nothing may keep a view into it
// (README, "Memory ownership"). Race builds, and this package's tests,
// poison storage as it is returned (poisonRecycled), so a view that
// outlives its owner reads sentinels and fails the oracle checks.
package exec

import (
	"bufio"
	"math"
	"math/bits"
	"sync"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

const (
	// minRecycleClass is the smallest class: storage of fewer than 64
	// rows is not worth a pool round trip.
	minRecycleClass = 6
	maxRecycleClass = 40
)

// recycleClass is the smallest class whose storage holds n rows.
func recycleClass(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), minRecycleClass)
}

// fileClass is the largest class storage of capacity c covers, or -1
// when c is below the smallest class.
func fileClass(c int) int {
	if c < 1<<minRecycleClass {
		return -1
	}
	return min(bits.Len(uint(c))-1, maxRecycleClass)
}

// classPools is one sync.Pool per class.
type classPools [maxRecycleClass + 1]sync.Pool

// slicePool recycles flat vectors of T by capacity class.
type slicePool[T any] struct{ classes classPools }

var (
	// hashPool holds key-hash vectors: build buffers' and sealed tables'
	// hashes, and the workers' Hash64Column scratch.
	hashPool slicePool[uint64]
	// idxPool holds row-index vectors: chain links, bucket directories,
	// probe candidates and match pairs, selections and row charges.
	idxPool slicePool[int32]
	// bytePool holds spill frame buffers, classed by bytes: run writers'
	// encode buffers and second-pass read buffers.
	bytePool slicePool[byte]
	// storePools holds column stores (*tuple.Columns) by shape
	// (storeShape), each shape's by row capacity class.
	storePools sync.Map // uint64 → *classPools
	// frames holds run-frame decode scratch. DecodeFrame reshapes a set
	// to every frame, so one pool serves frames of any shape and size.
	frames = sync.Pool{New: func() any { return tuple.NewColumns(0) }}
	// spillWriters holds the run writers' 64 KiB write buffers.
	spillWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}
)

// storeShape is the pool key of a store shaped like c: a hash of its
// column count and each column's payload vector (vecClass). Shapes that
// collide only share a pool, which costs allocations, never answers.
func storeShape(c *tuple.Columns) uint64 {
	h := uint64(c.NumCols())
	for i := 0; i < c.NumCols(); i++ {
		h = (h ^ vecClass(c.Col(i))) * 0x100000001b3
	}
	return h
}

// vecClass names the payload vector a column holds its cells in: 1 for
// ints (Int, Date, Bool), 2 floats, 3 strings, 0 none. An emptied
// column has no kind and is known by the vector it kept.
func vecClass(v *tuple.ColVec) uint64 {
	switch k := v.Kind(); {
	case value.IntClass(k):
		return 1
	case k == value.Float:
		return 2
	case k == value.String:
		return 3
	case cap(v.Ints()) > 0:
		return 1
	case cap(v.Floats()) > 0:
		return 2
	case cap(v.Strs()) > 0:
		return 3
	}
	return 0
}

func shapeClasses(shape uint64) *classPools {
	if p, ok := storePools.Load(shape); ok {
		return p.(*classPools)
	}
	p, _ := storePools.LoadOrStore(shape, new(classPools))
	return p.(*classPools)
}

// get returns an empty vector that holds n elements without growing.
func (p *slicePool[T]) get(n int) []T {
	k := recycleClass(n)
	if s, ok := p.classes[k].Get().(*[]T); ok {
		return (*s)[:0]
	}
	return make([]T, 0, 1<<k)
}

// zeroed returns a vector of n zero elements: a bucket directory or a
// chain-link vector, which must start empty whatever it last held.
func (p *slicePool[T]) zeroed(n int) []T {
	s := p.get(n)[:n]
	clear(s)
	return s
}

// put hands s's storage back; the caller must not touch s afterwards.
func (p *slicePool[T]) put(s []T) {
	k := fileClass(cap(s))
	if k < 0 {
		return
	}
	s = s[:cap(s)]
	if poisonRecycled {
		poisonSlice(s)
	}
	p.classes[k].Put(&s)
}

// fit returns an empty vector that holds n elements: s when it does,
// else a recycled one, with s handed back. Scratch only: s's contents
// are not kept.
func (p *slicePool[T]) fit(s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	p.put(s)
	return p.get(n)
}

// grow returns s when it holds n elements, else s's contents moved into
// a recycled vector that holds n (and twice len(s)), with s handed back.
func (p *slicePool[T]) grow(s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	t := append(p.get(max(n, 2*len(s))), s...)
	p.put(s)
	return t
}

// getStore returns an empty store shaped like like (its column count
// and payload vectors) that holds rows rows before an append
// reallocates a vector (tuple.Columns.Cap).
func getStore(like *tuple.Columns, rows int) *tuple.Columns {
	k := recycleClass(rows)
	c, _ := shapeClasses(storeShape(like))[k].Get().(*tuple.Columns)
	if c == nil {
		c = tuple.NewColumns(like.NumCols())
	} else {
		c.Reset(like.NumCols())
	}
	c.Reserve(1 << k)
	return c
}

// putStore hands a store back (nil is ignored); the caller must not
// touch it afterwards, nor read any view of its vectors.
func putStore(c *tuple.Columns) {
	if c == nil {
		return
	}
	shape := storeShape(c)
	k := fileClass(c.Recycle())
	if k < 0 {
		return
	}
	if poisonRecycled {
		poisonStore(c)
	}
	shapeClasses(shape)[k].Put(c)
}

// growStore returns s when it holds n rows before reallocating, else a
// recycled store shaped like like, the source of the rows to come, that
// holds n (and twice s's rows), with s's rows moved in and s handed
// back. s may be nil.
func growStore(s, like *tuple.Columns, n int) *tuple.Columns {
	if s == nil {
		return getStore(like, n)
	}
	if n <= s.Cap() {
		return s
	}
	t := getStore(like, max(n, 2*s.FullLen()))
	t.AppendRange(s, 0, s.FullLen())
	putStore(s)
	return t
}

// emptyStore empties a store its owner goes on filling, keeping the
// capacity Cap reports: its kindless columns would otherwise report
// none, and the next append would move the store for nothing.
func emptyStore(c *tuple.Columns) {
	n := c.Cap()
	c.Reset(c.NumCols())
	c.Reserve(n)
}

// getFrame returns run-frame decode scratch; putFrame hands it back.
func getFrame() *tuple.Columns { return frames.Get().(*tuple.Columns) }

func putFrame(c *tuple.Columns) {
	c.Reset(c.NumCols())
	if poisonRecycled {
		poisonStore(c)
	}
	frames.Put(c)
}

// poisonRecycled makes every put overwrite the storage it returns with
// sentinels, so that a reader still holding a view of it gets wrong
// answers instead of stale right ones. On in race builds and in this
// package's tests (export_test.go); off, at no cost, everywhere else.
var poisonRecycled = raceEnabled

// The sentinels: an int key no test data holds, a hash no test key
// has, a row index every vector rejects (negative), a filler byte, a
// float that equals no float key, and a string marker.
const (
	poisonInt   = math.MinInt64 + 0x5eed
	poisonHash  = 0x5eed_5eed_5eed_5eed
	poisonIdx   = math.MinInt32 + 0x5eed
	poisonByte  = 0xa5
	poisonFloat = -1.0e300
	poisonStr   = "\x00recycled\x00"
)

// poisonSlice fills a returned vector, to its capacity, with its type's
// sentinel.
func poisonSlice[T any](s []T) {
	switch v := any(s).(type) {
	case []uint64:
		fill(v, poisonHash)
	case []int32:
		fill(v, poisonIdx)
	case []byte:
		fill(v, poisonByte)
	}
}

// poisonStore fills every payload vector a recycled store keeps, to its
// capacity, with its kind's sentinel.
func poisonStore(c *tuple.Columns) {
	for i := 0; i < c.NumCols(); i++ {
		v := c.Col(i)
		fill(v.Ints()[:cap(v.Ints())], poisonInt)
		fill(v.Floats()[:cap(v.Floats())], poisonFloat)
		fill(v.Strs()[:cap(v.Strs())], poisonStr)
	}
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}
