// Package sample provides the sampling machinery AdaptDB's partitioners
// rely on. Amoeba "collects a sample from the data and uses it to choose
// the appropriate cut points" (§3.1); two-phase partitioning "sorts all
// values of the attribute in the sample at the root, and recursively
// computes medians for each subtree over this sorted list" (§5.1).
package sample

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strings"

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
// Values of one kind — a sample column, whose NULLs Column drops — sort
// as a vector of their typed payloads (int64s, floats under
// value.CompareFloat, strings), which then replace them; anything else
// sorts boxed, under value.Compare. Both are the pattern-defeating
// quicksort sort.Slice runs, making the same comparisons, and a payload
// carries every bit of its value, so values that compare equal but
// differ in bits (−0 and +0, NaNs) come out in the order the boxed
// sort.Slice left them, and every cut taken from the result is
// bit-identical to its cut.
func SortValues(vs []value.Value) []value.Value {
	if len(vs) < 2 {
		return vs
	}
	k := vs[0].K
	for _, v := range vs[1:] {
		if v.K != k {
			k = value.Null
			break
		}
	}
	switch {
	case value.IntClass(k):
		sortPayloads(vs, func(v value.Value) int64 { return v.I }, func(x int64) value.Value { return value.Value{K: k, I: x} }, cmp.Compare[int64])
	case k == value.Float:
		sortPayloads(vs, func(v value.Value) float64 { return v.F }, value.NewFloat, value.CompareFloat)
	case k == value.String:
		sortPayloads(vs, func(v value.Value) string { return v.S }, value.NewString, strings.Compare)
	default:
		slices.SortFunc(vs, value.Compare)
	}
	return vs
}

// sortPayloads sorts vs, values of one kind, through their payloads:
// get reads one, put makes the value back, compare orders two.
func sortPayloads[P any](vs []value.Value, get func(value.Value) P, put func(P) value.Value, compare func(a, b P) int) {
	ps := make([]P, len(vs))
	for i, v := range vs {
		ps[i] = get(v)
	}
	slices.SortFunc(ps, compare)
	for i, p := range ps {
		vs[i] = put(p)
	}
}

// LowerMedianCut picks a cut over sorted values that splits them into
// two non-empty sides (≤ cut, > cut): the lower median, at position
// (n−1)/2, or when that equals the max the largest value below it.
// Reports false when fewer than two distinct values exist.
func LowerMedianCut(sorted []value.Value) (value.Value, bool) {
	if len(sorted) < 2 {
		return value.Value{}, false
	}
	maxV := sorted[len(sorted)-1]
	if med := sorted[(len(sorted)-1)/2]; value.Compare(med, maxV) != 0 {
		return med, true
	}
	i := sort.Search(len(sorted), func(i int) bool { return value.Compare(sorted[i], maxV) >= 0 })
	if i == 0 {
		return value.Value{}, false
	}
	return sorted[i-1], true
}
