package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/dfs"
	"adaptdb/internal/hyperjoin"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// metaOf rebuilds bucket b's block.Meta from the tree's catalog, the
// record a test compares with block.MetaOf of the stored block.
func metaOf(ti *TreeInfo, b block.ID) (block.Meta, bool) {
	n, ok := ti.Count(b)
	if !ok {
		return block.Meta{}, false
	}
	m := block.Meta{ID: b, Count: n,
		Mins: make([]value.Value, len(ti.cat.zones)), Maxs: make([]value.Value, len(ti.cat.zones))}
	for ci := range ti.cat.zones {
		m.Mins[ci], m.Maxs[ci] = ti.cat.zones[ci].bounds(b)
	}
	return m, true
}

func mustMeta(t *testing.T, ti *TreeInfo, b block.ID) block.Meta {
	t.Helper()
	m, ok := metaOf(ti, b)
	if !ok {
		t.Fatalf("bucket %d not live", b)
	}
	return m
}

func mustCount(t *testing.T, ti *TreeInfo, b block.ID) int {
	t.Helper()
	n, ok := ti.Count(b)
	if !ok {
		t.Fatalf("bucket %d not live", b)
	}
	return n
}

// zoneShapes are the column shapes a fuzzed block draws from: one kind
// per block (Int, Date, Float with NaN/±0/±Inf, String), NULL-only, and
// a boxed mix of kinds within the block.
const (
	shapeInt = iota
	shapeDate
	shapeFloat
	shapeString
	shapeNull
	shapeMixed
	numShapes
)

var fuzzFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -2.5, 1.5, 7}

func fuzzCell(rng *rand.Rand, shape int) value.Value {
	if rng.Intn(6) == 0 {
		return value.Value{}
	}
	switch shape {
	case shapeMixed:
		return fuzzCell(rng, rng.Intn(shapeNull))
	case shapeInt:
		return value.NewInt(rng.Int63n(12) - 3)
	case shapeDate:
		return value.NewDate(rng.Int63n(12) - 3)
	case shapeFloat:
		return value.NewFloat(fuzzFloats[rng.Intn(len(fuzzFloats))])
	case shapeString:
		return value.NewString(string(rune('a' + rng.Intn(6))))
	}
	return value.Value{}
}

// fuzzConst draws a predicate constant of any kind, NULL included.
func fuzzConst(rng *rand.Rand) value.Value {
	switch rng.Intn(6) {
	case 0:
		return value.Value{}
	case 1:
		return value.NewDate(rng.Int63n(12) - 3)
	case 2:
		return value.NewFloat(fuzzFloats[rng.Intn(len(fuzzFloats))])
	case 3:
		return value.NewString(string(rune('a' + rng.Intn(6))))
	}
	return value.NewInt(rng.Int63n(12) - 3)
}

// fuzzCatalog builds a catalog over random blocks — empty ones, columns
// whose kind varies across blocks, NULL-only and boxed columns — and
// exercises rewrites and drops. It returns the catalog with each live
// bucket's block.
func fuzzCatalog(rng *rand.Rand, ncols int) (*catalog, map[block.ID]*block.Block) {
	c := newCatalog(ncols)
	// A column's shape is mostly fixed, sometimes per block, so typed
	// columns stay typed often enough to exercise the typed loops.
	colShape := make([]int, ncols)
	for ci := range colShape {
		colShape[ci] = rng.Intn(numShapes)
	}
	blocks := map[block.ID]*block.Block{}
	nb := rng.Intn(14)
	for writes := nb + rng.Intn(4); writes > 0; writes-- {
		b := block.ID(rng.Intn(nb + 1))
		if rng.Intn(8) == 0 {
			c.drop(b)
			delete(blocks, b)
			continue
		}
		blk := &block.Block{}
		shapes := append([]int(nil), colShape...)
		for ci := range shapes {
			if rng.Intn(10) == 0 {
				shapes[ci] = rng.Intn(numShapes)
			}
		}
		if rng.Intn(8) != 0 {
			for r := rng.Intn(6) + 1; r > 0; r-- {
				row := make(tuple.Tuple, ncols)
				for ci := range row {
					row[ci] = fuzzCell(rng, shapes[ci])
				}
				blk.Append(row)
			}
		}
		c.set(b, fmt.Sprintf("t/t0/b%d", b), dfs.NodeID(rng.Intn(3)), blk)
		blocks[b] = blk
	}
	return c, blocks
}

// fuzzPreds draws a conjunction of comparisons and IN lists (the empty
// one included), mostly on the catalog's columns, sometimes past them.
func fuzzPreds(rng *rand.Rand, ncols int) []predicate.Predicate {
	ops := []predicate.Op{predicate.EQ, predicate.NE, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
	var out []predicate.Predicate
	for n := rng.Intn(4); n > 0; n-- {
		col := rng.Intn(ncols)
		if rng.Intn(30) == 0 {
			col = ncols
		}
		if rng.Intn(6) == 0 {
			var vals []value.Value
			for k := rng.Intn(4); k > 0; k-- {
				vals = append(vals, fuzzConst(rng))
			}
			out = append(out, predicate.NewIn(col, vals...))
			continue
		}
		out = append(out, predicate.NewCmp(col, ops[rng.Intn(len(ops))], fuzzConst(rng)))
	}
	return out
}

// checkBlockPrune compares the catalog's typed pruning with
// block.Meta.MaybeMatches, its zone ranges with block.Meta.Range, and
// the typed overlap vectors of IntZones with the boxed
// hyperjoin.OverlapVectors, on one random catalog.
func checkBlockPrune(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ncols := 1 + rng.Intn(3)
	c, blocks := fuzzCatalog(rng, ncols)
	var refs []BlockRef
	for b, live := range c.live {
		if live {
			refs = append(refs, BlockRef{Bucket: block.ID(b), Count: c.count[b], Path: c.path[b], Node: c.node[b], cat: c})
		}
	}
	for _, r := range refs {
		meta := block.MetaOf(r.Bucket, blocks[r.Bucket])
		for col := 0; col <= ncols; col++ {
			if got, want := r.JoinRange(col), meta.Range(col); !sameZone(got, want) {
				t.Fatalf("seed %d: bucket %d col %d zone %v, block %v", seed, r.Bucket, col, got, want)
			}
		}
	}
	for k := 0; k < 8; k++ {
		preds := fuzzPreds(rng, ncols)
		ranges := predicate.ColumnRanges(preds)
		var want []block.ID
		for _, r := range refs {
			if block.MetaOf(r.Bucket, blocks[r.Bucket]).MaybeMatches(ranges) {
				want = append(want, r.Bucket)
			}
		}
		if got := c.match(nil, ranges); !slices.Equal(got, want) {
			t.Fatalf("seed %d: %v keeps %v, MaybeMatches %v", seed, preds, got, want)
		}
	}
	// Overlap: two random subsets of the refs, each on a random column.
	for k := 0; k < 4; k++ {
		pick := func() ([]BlockRef, int) {
			var sub []BlockRef
			for _, r := range refs {
				if rng.Intn(3) != 0 {
					sub = append(sub, r)
				}
			}
			return sub, rng.Intn(ncols)
		}
		rs, rc := pick()
		ss, sc := pick()
		rRanges := make([]predicate.Range, len(rs))
		for i, r := range rs {
			rRanges[i] = r.JoinRange(rc)
		}
		sRanges := make([]predicate.Range, len(ss))
		for j, s := range ss {
			sRanges[j] = s.JoinRange(sc)
		}
		want := hyperjoin.OverlapVectors(rRanges, sRanges)
		rKind, rLo, rHi, rOK := IntZones(rs, rc)
		sKind, sLo, sHi, sOK := IntZones(ss, sc)
		if !rOK || !sOK || rKind != sKind {
			continue
		}
		if got := hyperjoin.OverlapInts(rLo, rHi, sLo, sHi); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: typed overlap %v, boxed %v", seed, got, want)
		}
	}
}

// sameZone reports bit-identical ranges (a NaN bound equals itself).
func sameZone(a, b predicate.Range) bool {
	enc := func(r predicate.Range) []byte { return r.Hi.AppendBinary(r.Lo.AppendBinary(nil)) }
	return a.HasLo == b.HasLo && a.HasHi == b.HasHi && a.LoOpen == b.LoOpen && a.HiOpen == b.HiOpen &&
		bytes.Equal(enc(a), enc(b))
}

// TestPrunedRowsFailPredicate is the property pruning rests on: every
// row of a block the catalog's pruning skips fails the conjunction.
// Zone maps skip NULLs, so it holds only because a NULL cell and a NULL
// constant satisfy nothing (predicate.Matches).
func TestPrunedRowsFailPredicate(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncols := 1 + rng.Intn(3)
		c, blocks := fuzzCatalog(rng, ncols)
		for k := 0; k < 8; k++ {
			var preds []predicate.Predicate
			for _, p := range fuzzPreds(rng, ncols) {
				if p.Col < ncols { // a column past the schema has no cells to test
					preds = append(preds, p)
				}
			}
			kept := c.match(nil, predicate.ColumnRanges(preds))
			for b, blk := range blocks {
				if slices.Contains(kept, b) {
					continue
				}
				for _, row := range blk.Rows() {
					if predicate.MatchesAll(preds, row) {
						t.Fatalf("seed %d: bucket %d pruned under %v, but row %v matches", seed, b, preds, row)
					}
				}
			}
		}
	}
}

func TestBlockPruneMatchesMaybeMatches(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		checkBlockPrune(t, seed)
	}
}

func FuzzBlockPrune(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkBlockPrune)
}
