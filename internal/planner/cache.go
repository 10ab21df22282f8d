// PlanCache memoizes the expensive part of compilation: the per-join
// strategy decision (planTableJoin), whose hyper-join pricing walks
// every block's zone map and runs the O(blocks²) bottom-up grouping.
// A serving process compiles the same (tables, join attrs, predicates)
// shapes over and over; once the layout is stable, those decisions —
// strategy, orientation, and the co-partitioned/residual ref split —
// are pure functions of block metadata and can be replayed.
//
// Correctness hinges on each table's layout version in the key
// (core.Table.Version): every method that changes a table's trees,
// blocks or placement — smooth migration, tree creation and removal,
// full repartitioning, Amoeba's re-split — moves it, so a cached
// fragment compiled against the old layout simply stops being
// addressable. There is no explicit invalidation walk, and a stale
// entry can never be served. The cache's user must only keep layouts
// from changing while a compile runs; internal/serve does so with the
// lock that serializes adaptation against in-flight compiles.
package planner

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"adaptdb/internal/predicate"
)

// DefaultPlanCacheSize bounds the cache when the caller passes 0.
const DefaultPlanCacheSize = 256

// PlanCache is a bounded, concurrency-safe LRU over table-join
// strategy decisions. One cache serves any number of Runners.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	cap     int

	hits, misses atomic.Int64
}

// cacheEntry values are either a tableJoinPlan (per-join strategy
// decisions) or a specOrder (whole-spec join orderings); the key
// namespaces ("S|" prefix for spec orders) keep them from colliding.
type cacheEntry struct {
	key  string
	plan any
}

// NewPlanCache builds a cache bounded to size entries (0 = default).
func NewPlanCache(size int) *PlanCache {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	return &PlanCache{
		entries: make(map[string]*list.Element, size),
		order:   list.New(),
		cap:     size,
	}
}

// Stats reports lifetime lookup counts.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *PlanCache) get(key string) (tableJoinPlan, bool) {
	v, ok := c.getAny(key)
	if !ok {
		return tableJoinPlan{}, false
	}
	p, typed := v.(tableJoinPlan)
	return p, typed
}

func (c *PlanCache) getAny(key string) (any, bool) {
	c.mu.Lock()
	var plan any
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
		// Read under the lock: putAny may overwrite a live entry's plan.
		plan = el.Value.(*cacheEntry).plan
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return plan, true
}

func (c *PlanCache) put(key string, p tableJoinPlan) { c.putAny(key, p) }

func (c *PlanCache) putAny(key string, p any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent compile of the same shape raced us here; both
		// computed the same plan (same key ⇒ same layout versions).
		el.Value.(*cacheEntry).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, plan: p})
	for c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.entries, old.Value.(*cacheEntry).key)
	}
}

// cachedTableJoin is planTableJoin behind the Runner's cache: a hit
// replays the memoized decision (the ref slices are shared read-only —
// compile never mutates them), a miss computes and stores it. Without
// a cache it falls through untouched.
func (r *Runner) cachedTableJoin(l *Scan, lCol int, rt *Scan, rCol int) tableJoinPlan {
	if r.Cache == nil {
		return r.planTableJoin(l, lCol, rt, rCol)
	}
	key := r.planKey(l, lCol, rt, rCol)
	if p, ok := r.Cache.get(key); ok {
		r.CacheHits++
		return p
	}
	p := r.planTableJoin(l, lCol, rt, rCol)
	r.Cache.put(key, p)
	r.CacheMisses++
	return p
}

// planKey renders everything planTableJoin's answer depends on:
// (table, layout version, join attr, predicates) per side, plus the
// runner/executor knobs that steer the cost comparison.
func (r *Runner) planKey(l *Scan, lCol int, rt *Scan, rCol int) string {
	var b strings.Builder
	b.Grow(128)
	sideKey(&b, l, lCol)
	b.WriteByte('|')
	sideKey(&b, rt, rCol)
	b.WriteByte('|')
	if r.ForceShuffle {
		b.WriteByte('F')
	}
	if r.Ex.NoPrune {
		b.WriteByte('N')
	}
	b.WriteString(strconv.Itoa(r.budget()))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(r.Ex.MemLimit(), 10))
	return b.String()
}

func sideKey(b *strings.Builder, s *Scan, col int) {
	b.WriteString(s.Table.Name)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(s.Table.Version(), 10))
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(col))
	for _, p := range s.Preds {
		b.WriteByte(';')
		writePred(b, p)
	}
}

// writePred renders one predicate for the key. Predicate.String is the
// log renderer and covers column, operator and operand values; two
// predicates with equal strings filter identically.
func writePred(b *strings.Builder, p predicate.Predicate) {
	b.WriteString(p.String())
}
