package exec

import (
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func jtRow(key value.Value, tag int64) tuple.Tuple {
	return tuple.Tuple{key, value.NewInt(tag)}
}

// drainMatches collects the tags of every build row the table yields for
// the probe key.
func drainMatches(t *joinTable, key value.Value) []int64 {
	var tags []int64
	it := t.lookup(key.Hash64(), key)
	for {
		row, ok := it.next()
		if !ok {
			return tags
		}
		tags = append(tags, row[1].Int64())
	}
}

func TestJoinTableBasicMultiset(t *testing.T) {
	var buf joinBuf
	for i := int64(0); i < 100; i++ {
		key := value.NewInt(i % 10) // 10 dup rows per key
		buf.add(key.Hash64(), jtRow(key, i))
	}
	jt := newJoinTable(0, &buf)
	if jt.len() != 100 {
		t.Fatalf("table has %d rows, want 100", jt.len())
	}
	for k := int64(0); k < 10; k++ {
		tags := drainMatches(jt, value.NewInt(k))
		if len(tags) != 10 {
			t.Fatalf("key %d matched %d rows, want 10", k, len(tags))
		}
		for _, tag := range tags {
			if tag%10 != k {
				t.Errorf("key %d yielded row tagged %d", k, tag)
			}
		}
	}
	if got := drainMatches(jt, value.NewInt(999)); got != nil {
		t.Errorf("absent key matched %v", got)
	}
}

func TestJoinTableForcedHashCollision(t *testing.T) {
	// Distinct values inserted under the SAME forced hash must still be
	// told apart by the value.Equal check on probe.
	a, b, c := value.NewInt(1), value.NewString("one"), value.NewDate(1)
	const h = uint64(0xDEADBEEF)
	var buf joinBuf
	buf.add(h, jtRow(a, 100))
	buf.add(h, jtRow(b, 200))
	buf.add(h, jtRow(c, 300))
	buf.add(h, jtRow(a, 101))
	jt := newJoinTable(0, &buf)
	for _, tc := range []struct {
		key  value.Value
		want []int64
	}{
		{a, []int64{101, 100}}, // chain order is LIFO
		{b, []int64{200}},
		{c, []int64{300}},
	} {
		it := jt.lookup(h, tc.key)
		var got []int64
		for {
			row, ok := it.next()
			if !ok {
				break
			}
			got = append(got, row[1].Int64())
		}
		if len(got) != len(tc.want) {
			t.Fatalf("colliding key %v matched %v, want %v", tc.key, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("colliding key %v matched %v, want %v", tc.key, got, tc.want)
			}
		}
	}
	// A fourth distinct value probing the same hash matches nothing.
	if it := jt.lookup(h, value.NewFloat(1)); func() bool { _, ok := it.next(); return ok }() {
		t.Errorf("uninserted value matched via forced hash collision")
	}
}

func TestJoinTableMixedKindKeys(t *testing.T) {
	// Int 5, Date 5 and Float 5.0 are distinct join keys (value.Equal is
	// kind-sensitive); each probe kind must only see its own rows.
	keys := []value.Value{value.NewInt(5), value.NewDate(5), value.NewFloat(5)}
	var buf joinBuf
	for i, k := range keys {
		buf.add(k.Hash64(), jtRow(k, int64(i)))
	}
	jt := newJoinTable(0, &buf)
	for i, k := range keys {
		tags := drainMatches(jt, k)
		if len(tags) != 1 || tags[0] != int64(i) {
			t.Errorf("kind %s matched %v, want [%d]", k.K, tags, i)
		}
	}
	if tags := drainMatches(jt, value.NewBool(true)); tags != nil {
		t.Errorf("Bool probe matched %v", tags)
	}
}

func TestJoinTableNullProbeMatchesNothing(t *testing.T) {
	// Even if a careless caller inserted a null-keyed row, the lookup
	// guard keeps NULL probes from matching anything — including that
	// row: NULL never equals NULL.
	var buf joinBuf
	null := value.Value{}
	buf.add(null.Hash64(), jtRow(null, 1)) // builders must skip nulls; simulate one that didn't
	key := value.NewInt(7)
	buf.add(key.Hash64(), jtRow(key, 2))
	jt := newJoinTable(0, &buf)
	if tags := drainMatches(jt, null); tags != nil {
		t.Errorf("null probe key matched %v — NULL must never equal NULL", tags)
	}
	if tags := drainMatches(jt, key); len(tags) != 1 || tags[0] != 2 {
		t.Errorf("non-null key matched %v, want [2]", tags)
	}
}

func TestJoinTableEmpty(t *testing.T) {
	jt := newJoinTable(0, &joinBuf{})
	if jt.len() != 0 {
		t.Fatalf("empty table len %d", jt.len())
	}
	if tags := drainMatches(jt, value.NewInt(1)); tags != nil {
		t.Errorf("empty table matched %v", tags)
	}
}

func TestJoinTableMergesBuffersAcrossChunks(t *testing.T) {
	// Seal a buffer with enough rows to span many chunks (a second-pass
	// load); the seal merges the chunks into one flat entry slice and
	// every row must survive.
	const n = 9*joinChunkSize + 51
	var buf joinBuf
	for i := 0; i < n; i++ {
		key := value.NewInt(int64(i % 97))
		buf.add(key.Hash64(), jtRow(key, int64(i)))
	}
	if len(buf.chunks) < 10 {
		t.Fatalf("buffer holds %d chunks, want >= 10", len(buf.chunks))
	}
	jt := newJoinTable(0, &buf)
	if jt.len() != n {
		t.Fatalf("sealed table has %d rows, want %d", jt.len(), n)
	}
	total := 0
	for k := int64(0); k < 97; k++ {
		total += len(drainMatches(jt, value.NewInt(k)))
	}
	if total != n {
		t.Errorf("probing every key found %d rows, want %d", total, n)
	}
}

// TestParallelJoinBuildProbeRace exercises the full parallel radix join
// under the race detector (CI runs this package with -race): multiple
// workers partition the build side, seal tables, and probe concurrently.
func TestParallelJoinBuildProbeRace(t *testing.T) {
	l := genLineitem(20000, 31)
	r := genOrders(8000, 32)
	f := newFixture(t, true)
	f.ex.Workers = 4
	got, err := Collect(f.ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	want := HashJoinRows(l, r, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("parallel join %d rows, reference %d", len(got), len(want))
	}
	SortRows(got)
	SortRows(want)
	for i := range got {
		for c := range got[i] {
			if value.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d differs between parallel and reference join", i)
			}
		}
	}
}

// TestJoinTableCapNoGrow pins the pre-sizing contract of incremental
// tables: a planner estimate within 2x of the true build cardinality
// (high or low) yields ZERO bucket-array rehash-grows, so a join with a
// sane estimate never pays rehash cost. A badly low estimate must still
// grow (and stay correct) rather than degrade to long chains.
func TestJoinTableCapNoGrow(t *testing.T) {
	const n = 1000
	build := func(capHint int) *joinTable {
		jt := newJoinTableCap(0, capHint)
		for i := int64(0); i < n; i++ {
			key := value.NewInt(i % 50)
			jt.insert(key.Hash64(), jtRow(key, i))
		}
		return jt
	}
	for _, est := range []int{n / 2, n, 2 * n, 4 * n} {
		if jt := build(est); jt.grows != 0 {
			t.Errorf("estimate %d for %d rows: %d rehash-grows, want 0", est, n, jt.grows)
		}
	}
	// 10x under-estimate: must grow, and lookups must survive the rehash.
	jt := build(n / 10)
	if jt.grows == 0 {
		t.Fatalf("estimate %d for %d rows grew 0 times — load factor unbounded", n/10, n)
	}
	if jt.len() != n {
		t.Fatalf("table has %d rows, want %d", jt.len(), n)
	}
	for k := int64(0); k < 50; k++ {
		if got := len(drainMatches(jt, value.NewInt(k))); got != n/50 {
			t.Fatalf("after rehash, key %d matched %d rows, want %d", k, got, n/50)
		}
	}
}

// TestJoinTableBucketsExact covers the sealed tables' bucket sizing
// (tableBuckets, used by sealColTables and newJoinTable): the next
// power of two at or above the row count, so the load factor stays ≤ 1
// and no estimate can inflate a table past its rows.
func TestJoinTableBucketsExact(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {128, 128}, {129, 256}} {
		if got := tableBuckets(tc.n); got != tc.want {
			t.Errorf("tableBuckets(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
