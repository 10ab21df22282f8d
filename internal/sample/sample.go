// Package sample provides the sampling machinery AdaptDB's partitioners
// rely on. Amoeba "collects a sample from the data and uses it to choose
// the appropriate cut points" (§3.1); two-phase partitioning "sorts all
// values of the attribute in the sample at the root, and recursively
// computes medians for each subtree over this sorted list" (§5.1).
package sample

import (
	"math/rand"
	"sort"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Reservoir is a classic reservoir sampler over tuples: after observing
// any number of rows it holds a uniform random sample of at most K.
type Reservoir struct {
	K     int
	rng   *rand.Rand
	seen  int64
	items []tuple.Tuple
}

// NewReservoir creates a sampler holding at most k tuples, seeded
// deterministically so experiment runs are reproducible.
func NewReservoir(k int, seed int64) *Reservoir {
	if k <= 0 {
		k = 1
	}
	return &Reservoir{K: k, rng: rand.New(rand.NewSource(seed))}
}

// Observe offers one tuple to the sampler.
func (r *Reservoir) Observe(t tuple.Tuple) {
	r.seen++
	if len(r.items) < r.K {
		r.items = append(r.items, t)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.K) {
		r.items[j] = t
	}
}

// Sample returns the current sample (shared backing array; callers must
// not mutate).
func (r *Reservoir) Sample() []tuple.Tuple { return r.items }

// Column extracts column col from a tuple sample.
func Column(rows []tuple.Tuple, col int) []value.Value {
	out := make([]value.Value, 0, len(rows))
	for _, t := range rows {
		if col < len(t) && !t[col].IsNull() {
			out = append(out, t[col])
		}
	}
	return out
}

// SortValues sorts values in place under value.Compare and returns them.
func SortValues(vs []value.Value) []value.Value {
	sort.Slice(vs, func(i, j int) bool { return value.Less(vs[i], vs[j]) })
	return vs
}
