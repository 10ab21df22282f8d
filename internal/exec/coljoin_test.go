package exec

import (
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// tagged returns build rows (key, tag) with tags 0, 1, ... in key order.
func tagged(keys ...value.Value) []tuple.Tuple {
	rows := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		rows[i] = tuple.Tuple{k, value.NewInt(int64(i))}
	}
	return rows
}

// oneTable seals rows as a one-partition join table keyed on column 0,
// under hashes (nil: each key's own hash).
func oneTable(rows []tuple.Tuple, hashes []uint64) *hashJoinOp {
	store := tuple.NewColumns(2)
	store.AppendRows(rows)
	if hashes == nil {
		hashes = store.Hash64Column(0, nil)
	}
	j := onePartJoin(nil, 0, 0, false, nil, nil)
	j.sealOne(store, hashes)
	return j
}

// probeTags streams one probe row keyed on key through the table's probe
// loops and returns the tags of the build rows it matched.
func probeTags(j *hashJoinOp, key value.Value) []int64 {
	out := make(chan *Batch, 16)
	j.out, j.done = out, make(chan struct{})
	pc := tuple.NewColumns(1)
	pc.AppendRow(tuple.Tuple{key})
	st := &colProbe{j: j, ok: true}
	j.probeColsBatch(pc, st, nil, nil)
	st.flush()
	close(out)
	var tags []int64
	for b := range out {
		for _, r := range b.Rows() {
			tags = append(tags, r[1].Int64())
		}
		b.Release()
	}
	return tags
}

// chainTags walks the table's chain for hash h as probeColGeneric does —
// hash pre-check, then buildKeyEq — and returns the matched tags.
func chainTags(j *hashJoinOp, h uint64, key value.Value) []int64 {
	t := j.cbuild
	p := &t.parts[0]
	var tags []int64
	for e := p.buckets[h&p.mask]; e != 0; {
		g := p.base + e - 1
		e = p.next[e-1]
		if t.hashes[g] == h && buildKeyEq(t.keyVec, g, key) {
			tags = append(tags, t.store.Value(1, int(g)).Int64())
		}
	}
	return tags
}

func TestJoinTableBasicMultiset(t *testing.T) {
	keys := make([]value.Value, 100)
	for i := range keys {
		keys[i] = value.NewInt(int64(i % 10)) // 10 dup rows per key
	}
	j := oneTable(tagged(keys...), nil)
	if j.buildRows != 100 {
		t.Fatalf("table has %d rows, want 100", j.buildRows)
	}
	for k := int64(0); k < 10; k++ {
		tags := probeTags(j, value.NewInt(k))
		if len(tags) != 10 {
			t.Fatalf("key %d matched %d rows, want 10", k, len(tags))
		}
		for _, tag := range tags {
			if tag%10 != k {
				t.Errorf("key %d yielded row tagged %d", k, tag)
			}
		}
	}
	if got := probeTags(j, value.NewInt(999)); got != nil {
		t.Errorf("absent key matched %v", got)
	}
}

func TestJoinTableEmpty(t *testing.T) {
	j := oneTable(nil, nil)
	if j.buildRows != 0 || j.cbuild != nil {
		t.Fatalf("empty table holds %d rows", j.buildRows)
	}
	j.cbuild = &colBuild{parts: make([]colPart, 1)} // what a sealed, empty first pass leaves
	if tags := probeTags(j, value.NewInt(1)); tags != nil {
		t.Errorf("empty table matched %v", tags)
	}
}

// TestJoinTableMergesBuffersAcrossChunks: a partition's rows arrive
// spread over many build workers' buffers; sealing merges them into one
// contiguous store range, and every row must survive.
func TestJoinTableMergesBuffersAcrossChunks(t *testing.T) {
	const workers, n = 10, 9*DefaultBatchSize + 51
	keys := make([]value.Value, n)
	for i := range keys {
		keys[i] = value.NewInt(int64(i % 97))
	}
	src := tuple.NewColumns(2)
	src.AppendRows(tagged(keys...))
	hv := src.Hash64Column(0, nil)
	bufs := make([][]colBuf, workers)
	for w := range bufs {
		bufs[w] = make([]colBuf, 1)
	}
	for i := 0; i < n; i++ {
		bufs[i%workers][0].addGather(src, hv, []int32{int32(i)})
	}
	j := onePartJoin(nil, 0, 0, false, nil, nil)
	j.sealColTables(bufs)
	if j.buildRows != n {
		t.Fatalf("sealed table has %d rows, want %d", j.buildRows, n)
	}
	total := 0
	for k := int64(0); k < 97; k++ {
		total += len(probeTags(j, value.NewInt(k)))
	}
	if total != n {
		t.Errorf("probing every key found %d rows, want %d", total, n)
	}
}

// keyEqCase is one probe of a one-partition table and the tags of the
// build rows it must match.
type keyEqCase struct {
	name  string
	probe value.Value
	want  []int64
}

// checkKeyEquality pins the exact key compare behind the hash pre-check
// over a boxed (mixed-kind) build key column. keys are sealed, tagged
// 0, 1, ... in order; with forced, every build row and every probe runs
// under one hash, so only buildKeyEq tells the rows apart.
func checkKeyEquality(t *testing.T, keys []value.Value, forced bool, cases []keyEqCase) {
	t.Helper()
	const forcedHash = uint64(0xDEADBEEF)
	var hashes []uint64
	if forced {
		hashes = make([]uint64, len(keys))
		for i := range hashes {
			hashes[i] = forcedHash
		}
	}
	j := oneTable(tagged(keys...), hashes)
	if j.cbuild.keyVec.Boxed() == nil {
		t.Fatal("build key column is not boxed")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []int64
			if forced {
				got = chainTags(j, forcedHash, tc.probe)
			} else {
				got = probeTags(j, tc.probe)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("probe %v matched %v, want %v", tc.probe, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("probe %v matched %v, want %v", tc.probe, got, tc.want)
				}
			}
		})
	}
}

// TestJoinTableForcedHashCollision: distinct values stored under one
// hash are still told apart by the key compare.
func TestJoinTableForcedHashCollision(t *testing.T) {
	one, oneStr, oneDate := value.NewInt(1), value.NewString("one"), value.NewDate(1)
	checkKeyEquality(t, []value.Value{one, oneStr, oneDate, one}, true, []keyEqCase{
		{"int", one, []int64{3, 0}}, // chain order is LIFO
		{"string", oneStr, []int64{1}},
		{"date", oneDate, []int64{2}},
		{"absent", value.NewFloat(1), nil},
	})
}

// TestJoinTableMixedKindKeys: equality is kind-sensitive, so Int 5,
// Date 5 and Float 5 are three distinct keys.
func TestJoinTableMixedKindKeys(t *testing.T) {
	kinds := []value.Value{value.NewInt(5), value.NewDate(5), value.NewFloat(5)}
	checkKeyEquality(t, kinds, false, []keyEqCase{
		{"int", kinds[0], []int64{0}},
		{"date", kinds[1], []int64{1}},
		{"float", kinds[2], []int64{2}},
		{"bool", value.NewBool(true), nil},
	})
}

// TestJoinTableNullProbeMatchesNothing: a NULL probe key matches
// nothing, even a NULL-keyed row a careless builder kept.
func TestJoinTableNullProbeMatchesNothing(t *testing.T) {
	checkKeyEquality(t, []value.Value{{}, value.NewInt(7), value.NewString("7")}, false, []keyEqCase{
		{"null", value.Value{}, nil},
		{"int", value.NewInt(7), []int64{1}},
	})
}

// TestJoinTableBucketsExact covers the sealed tables' bucket sizing
// (tableBuckets, used by newColPart): the next power of two at or above
// the row count, so the load factor stays ≤ 1 and no estimate can
// inflate a table past its rows.
func TestJoinTableBucketsExact(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {128, 128}, {129, 256}} {
		if got := tableBuckets(tc.n); got != tc.want {
			t.Errorf("tableBuckets(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestParallelJoinBuildProbeRace exercises the full parallel radix join
// under the race detector (CI runs this package with -race): multiple
// workers partition the build side, seal tables, and probe concurrently.
func TestParallelJoinBuildProbeRace(t *testing.T) {
	l := genLineitem(4000, 31)
	r := genOrders(1600, 32)
	f := newFixture(t, true)
	f.ex.Workers = 4
	got, err := Collect(f.ex.JoinOp(NewSource(r), 0, NewSource(l), 0, JoinOptions{BuildIsRight: true}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(l, r, 0, 0))
}

// TestJoinInputTransposesRowBatches: rows enter the engine only through
// a Source, which transposes them, so the join's workers see them as
// the columns they were given; an empty batch reaches them not at all.
func TestJoinInputTransposesRowBatches(t *testing.T) {
	rows := genLineitem(10, 1)
	src := NewSource(rows)
	if err := src.Open(); err != nil {
		t.Fatal(err)
	}
	sb, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	b := joinInput(sb)
	cb := b.Cols()
	if cb.Len() != len(rows) || cb.NumCols() != len(rows[0]) {
		t.Fatalf("%d rows reached the join as %d×%d", len(rows), cb.Len(), cb.NumCols())
	}
	for i, r := range rows {
		for c := range r {
			if value.Compare(cb.Value(c, i), r[c]) != 0 {
				t.Fatalf("row %d col %d = %v, want %v", i, c, cb.Value(c, i), r[c])
			}
		}
	}
	b.Release()
	if joinInput(NewColBatch(len(rows[0]))) != nil {
		t.Error("an empty batch reached the join's workers")
	}
	ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
	got, err := Collect(ex.JoinOp(NewSource(rows), 0, NewSource(rows), 0, JoinOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualSorted(t, got, NestedLoopJoin(rows, rows, 0, 0))
}
