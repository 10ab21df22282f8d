// Package recycle is the one owner of reusable storage: flat vectors
// and column stores (tuple.Columns) in size-classed pools. The
// executor's hash joins take their build buffers, sealed tables,
// group tables, spill buffers and worker scratch from it; the storage
// layer takes a block's column vectors from it when a block grows and
// hands them back when a migration drains the block; the TCP pumps
// take their encode buffers. Each hands storage back at the first point
// nothing can read it, so one user reuses what another dropped instead
// of allocating afresh and leaving the old storage to the collector.
//
// Class k holds storage of at least 1<<k rows (elements, for vectors).
// A get for n takes from the smallest class that holds n, or allocates
// that class's full size; a put files storage under the largest class
// its capacity covers, so a later get of the same size finds it.
// Classes are powers of two: storage grows by doubling, and finer
// classes would spread it over more pools, each hit less often. Column
// stores are pooled by shape too — the payload vector of each column —
// so a recycled store adopts every column into a vector it already
// has, and a store get whose class is empty takes from the class above
// before it allocates: a migration drains blocks at their full size
// while its destinations first ask for a fraction of theirs, and the
// second class halved what a steady-state lineitem drain allocates
// (core's TestMoveBucketsLineitemSteadyDrain). Each class is a
// sync.Pool: the collector empties what two cycles find unused, so the
// pools need no bound or setting of their own.
//
// Returned storage belongs to the pool: nothing may keep a view into
// it. Race builds, and the tests of the packages that return storage,
// poison it as it is returned (Poison), so a view that outlives its
// owner reads sentinels and fails the oracle checks.
package recycle

import (
	"math"
	"math/bits"
	"sync"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

const (
	// MinClass is the smallest class: storage of fewer than 64 rows is
	// not worth a pool round trip.
	MinClass = 6
	maxClass = 40
)

// Class is the smallest class whose storage holds n rows.
func Class(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), MinClass)
}

// FileClass is the largest class storage of capacity c covers, or -1
// when c is below the smallest class.
func FileClass(c int) int {
	if c < 1<<MinClass {
		return -1
	}
	return min(bits.Len(uint(c))-1, maxClass)
}

// classPools is one sync.Pool per class.
type classPools [maxClass + 1]sync.Pool

// Slices recycles flat vectors of T by capacity class.
type Slices[T any] struct{ classes classPools }

// Bytes holds byte buffers: spill run writers' encode buffers and
// second-pass read buffers, and the TCP pumps' frame encode buffers.
var Bytes Slices[byte]

// Get returns an empty vector that holds n elements without growing.
func (p *Slices[T]) Get(n int) []T {
	k := Class(n)
	if s, ok := p.classes[k].Get().(*[]T); ok {
		return (*s)[:0]
	}
	return make([]T, 0, 1<<k)
}

// Zeroed returns a vector of n zero elements: a bucket directory or a
// chain-link vector, which must start empty whatever it last held.
func (p *Slices[T]) Zeroed(n int) []T {
	s := p.Get(n)[:n]
	clear(s)
	return s
}

// Put hands s's storage back; the caller must not touch s afterwards.
func (p *Slices[T]) Put(s []T) {
	k := FileClass(cap(s))
	if k < 0 {
		return
	}
	s = s[:cap(s)]
	if Poison {
		poisonSlice(s)
	}
	p.classes[k].Put(&s)
}

// Fit returns an empty vector that holds n elements: s when it does,
// else a recycled one, with s handed back. Scratch only: s's contents
// are not kept.
func (p *Slices[T]) Fit(s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	p.Put(s)
	return p.Get(n)
}

// Grow returns s when it holds n elements, else s's contents moved into
// a recycled vector that holds n (and twice len(s)), with s handed back.
func (p *Slices[T]) Grow(s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	t := append(p.Get(max(n, 2*len(s))), s...)
	p.Put(s)
	return t
}

// storePools holds column stores (*tuple.Columns) by shape (storeShape),
// each shape's by row capacity class.
var storePools sync.Map // uint64 → *classPools

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

// GetStore returns an empty store shaped like like (its column count
// and payload vectors) that holds rows rows before an append
// reallocates a vector (tuple.Columns.Cap): a recycled one of rows'
// class or the one above, or a new one of its class's full size.
func GetStore(like *tuple.Columns, rows int) *tuple.Columns {
	k := Class(rows)
	pools := shapeClasses(storeShape(like))
	c, _ := pools[k].Get().(*tuple.Columns)
	if c == nil && k < maxClass {
		if c, _ = pools[k+1].Get().(*tuple.Columns); c != nil {
			k++
		}
	}
	if c == nil {
		c = tuple.NewColumns(like.NumCols())
	} else {
		c.Reset(like.NumCols())
	}
	c.Reserve(1 << k)
	return c
}

// PutStore hands a store back (nil is ignored); the caller must not
// touch it afterwards, nor read any view of its vectors.
func PutStore(c *tuple.Columns) {
	if c == nil {
		return
	}
	shape := storeShape(c)
	k := FileClass(c.Recycle())
	if k < 0 {
		return
	}
	if Poison {
		PoisonStore(c)
	}
	shapeClasses(shape)[k].Put(c)
}

// GrowStore returns s when it holds n rows before reallocating, else a
// recycled store shaped like like, the source of the rows to come, that
// holds n (and twice s's rows), with s's rows moved in and s handed
// back. s may be nil.
func GrowStore(s, like *tuple.Columns, n int) *tuple.Columns {
	if s == nil {
		return GetStore(like, n)
	}
	if n <= s.Cap() {
		return s
	}
	t := GetStore(like, max(n, 2*s.FullLen()))
	t.AppendRange(s, 0, s.FullLen())
	PutStore(s)
	return t
}

// EmptyStore empties a store its owner goes on filling, keeping the
// capacity Cap reports: its kindless columns would otherwise report
// none, and the next append would move the store for nothing.
func EmptyStore(c *tuple.Columns) {
	n := c.Cap()
	c.Reset(c.NumCols())
	c.Reserve(n)
}

// Poison makes every put overwrite the storage it returns with
// sentinels, so that a reader still holding a view of it gets wrong
// answers instead of stale right ones. On in race builds and in the
// tests of the packages that hand storage back; off, at no cost,
// everywhere else.
var Poison = Race

// The sentinels: an int key no test data holds, a hash no test key
// has, a row index every vector rejects (negative), a filler byte, a
// float that equals no float key, and a string marker.
const (
	PoisonInt   = math.MinInt64 + 0x5eed
	PoisonHash  = 0x5eed_5eed_5eed_5eed
	PoisonIdx   = math.MinInt32 + 0x5eed
	PoisonByte  = 0xa5
	PoisonFloat = -1.0e300
	PoisonStr   = "\x00recycled\x00"
)

// poisonSlice fills a returned vector, to its capacity, with its type's
// sentinel.
func poisonSlice[T any](s []T) {
	switch v := any(s).(type) {
	case []uint64:
		fill(v, PoisonHash)
	case []int32:
		fill(v, PoisonIdx)
	case []byte:
		fill(v, PoisonByte)
	}
}

// PoisonStore fills every payload vector a returned store keeps, to
// its capacity, with its kind's sentinel.
func PoisonStore(c *tuple.Columns) {
	for i := 0; i < c.NumCols(); i++ {
		v := c.Col(i)
		fill(v.Ints()[:cap(v.Ints())], PoisonInt)
		fill(v.Floats()[:cap(v.Floats())], PoisonFloat)
		fill(v.Strs()[:cap(v.Strs())], PoisonStr)
	}
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}
