package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
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
	j := onePartJoin(nil, 0, 0, false)
	j.sealOne(store, hashes)
	return j
}

// probeTags streams one probe row keyed on key through the table's probe
// loops and returns the tags of the build rows it matched.
func probeTags(j *hashJoinOp, key value.Value) []int64 {
	out := make(chan *Batch, 16)
	j.p.out, j.p.done = out, make(chan struct{})
	pc := tuple.NewColumns(1)
	pc.AppendRow(tuple.Tuple{key})
	st := &colProbe{j: j, sink: &j.p, ok: true}
	j.probeColsBatch(pc, st, nil, nil)
	st.flush()
	st.emit()
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

// chainTags walks the table's chain for hash h as walkBoxed does —
// hash pre-check, then buildKeyEq — and returns the matched tags.
func chainTags(j *hashJoinOp, h uint64, key value.Value) []int64 {
	t := j.cbuild
	p := &t.parts[0]
	var tags []int64
	for e := p.buckets[p.slot(h)]; e != 0; e = t.next[e-1] {
		g := e - 1
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
	j := onePartJoin(nil, 0, 0, false)
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

// bucketFill counts a sealed table's non-empty buckets and all of its
// buckets, over every partition.
func bucketFill(t *colBuild) (used, total int) {
	for _, p := range t.parts {
		for _, e := range p.buckets {
			used += b2i(e != 0)
		}
		total += len(p.buckets)
	}
	return used, total
}

// checkBucketFill fails unless at least 55% of the table's buckets hold
// a chain. Uniform hashing at load factor 1 fills 1 − 1/e ≈ 63%; a
// bucket picked from hash bits the rows share leaves half the table
// unused and fills ≈ 43%.
func checkBucketFill(t *testing.T, what string, cb *colBuild) {
	t.Helper()
	used, total := bucketFill(cb)
	if total == 0 || float64(used) < 0.55*float64(total) {
		t.Errorf("%s: %d of %d buckets non-empty, want ≥ 55%%", what, used, total)
	}
	t.Logf("%s: %d of %d buckets non-empty (%.1f%%)", what, used, total, 100*float64(used)/float64(max(total, 1)))
}

// TestJoinTableBucketsSpreadBehindExchange: a hash exchange sends a row
// to node hash % nodes, so behind a 2-node Shuffle every key a join
// sees hashes with the same low bit. The bucket must come from bits
// that still vary.
func TestJoinTableBucketsSpreadBehindExchange(t *testing.T) {
	t.Run("sealed", func(t *testing.T) {
		var keys []value.Value // 4,096 distinct keys, as node 0 receives them
		for k := int64(0); len(keys) < 4096; k++ {
			if v := value.NewInt(k); v.Hash64()%2 == 0 {
				keys = append(keys, v)
			}
		}
		j := oneTable(tagged(keys...), nil)
		if n := len(j.cbuild.parts[0].buckets); n != 4096 {
			t.Fatalf("%d buckets, want 4096", n)
		}
		checkBucketFill(t, "one partition", j.cbuild)
	})
	t.Run("shuffle", func(t *testing.T) {
		// 64 keys per (node, radix partition): each node's 32 default
		// partitions then seal at load factor exactly 1.
		const nodes, perPart = 2, 64
		var count [nodes][joinPartitions]int
		var rows []tuple.Tuple
		for k := int64(0); len(rows) < nodes*joinPartitions*perPart; k++ {
			h := value.NewInt(k).Hash64()
			c := &count[h%nodes][h>>(64-joinRadixBits)]
			if *c < perPart {
				*c++
				rows = append(rows, tuple.Tuple{value.NewInt(k), value.NewInt(int64(len(rows)))})
			}
		}
		ns, _ := nodeSetOf(t, nodes)
		bx := ns.Shuffle([]Operator{NewSource(rows[:len(rows)/2]), NewSource(rows[len(rows)/2:])}, 0)
		joins := make([]*hashJoinOp, nodes)
		for i := range joins {
			joins[i] = ns.At(i).JoinOp(bx.Output(i), 0, NewSource(nil), 0, JoinOptions{}).(*hashJoinOp)
		}
		// Every exchange output drains at once; each node's table is read
		// between its Open (which seals it) and its Close (which drops it).
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		built := make([]*colBuild, nodes)
		for i, j := range joins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[i] = j.Open(); errs[i] != nil {
					return
				}
				built[i] = j.cbuild
				_, errs[i] = j.Next()
				j.Close()
			}()
		}
		wg.Wait()
		for i := range joins {
			if errs[i] != nil {
				t.Fatalf("node %d: %v", i, errs[i])
			}
			if got := joins[i].buildRows; got != joinPartitions*perPart {
				t.Fatalf("node %d sealed %d rows, want %d", i, got, joinPartitions*perPart)
			}
			checkBucketFill(t, fmt.Sprintf("node %d", i), built[i])
		}
	})
}

// probeCase is one build and probe input for the chain-level probe,
// keyed on column 0: preds narrow the probe batches by a selection,
// budget (bytes, 0 = none) forces demoted partitions.
type probeCase struct {
	name         string
	build, probe []tuple.Tuple
	preds        []predicate.Predicate
	budget       int64
	wantNone     bool
}

// ints, dates and strs box n keys of one kind, the ith from key(i).
func ints(n int, key func(i int) int64) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewInt(key(i))
	}
	return out
}

func dates(n int, key func(i int) int64) []value.Value {
	out := ints(n, key)
	for i := range out {
		out[i] = value.NewDate(out[i].I)
	}
	return out
}

func strs(n int, key func(i int) int64) []value.Value {
	out := ints(n, key)
	for i := range out {
		out[i] = value.NewString(string(rune('a'+out[i].I%26)) + string(rune('a'+out[i].I/26%26)))
	}
	return out
}

// TestJoinProbeMatchesNestedLoop runs the head pass and every chain
// walk against the nested-loop oracle, over each key shape: flat ints,
// dates and strings (==), floats with NaN and ±0 (FloatEqual), boxed
// mixed kinds and Int-vs-Date keys (buildKeyEq), NULL keys, a probe
// narrowed by a selection, a 3,000-row chain that crosses addPair's
// flush, and a budgeted join whose head pass routes probe rows of
// demoted partitions to their runs.
func TestJoinProbeMatchesNestedLoop(t *testing.T) {
	mod := func(m int) func(int) int64 { return func(i int) int64 { return int64(i * 7 % m) } }
	nan, negZero := value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1))
	floats := []value.Value{nan, value.NewFloat(0), negZero, value.NewFloat(1.5), nan, value.NewFloat(-2)}
	mixed := []value.Value{value.NewInt(5), value.NewDate(5), value.NewFloat(5), value.NewString("5"), value.NewInt(6), nan}
	withNulls := ints(400, mod(50))
	for i := 0; i < len(withNulls); i += 3 {
		withNulls[i] = value.Value{}
	}
	hot := ints(3000, func(int) int64 { return 7 })
	hot = append(hot, ints(100, func(i int) int64 { return int64(i) })...)
	budgeted := keyedRows(4000, func(i int) int64 { return int64(i) })
	cases := []probeCase{
		{name: "int", build: tagged(ints(600, mod(200))...), probe: tagged(ints(2000, mod(400))...)},
		{name: "date", build: tagged(dates(600, mod(200))...), probe: tagged(dates(2000, mod(400))...)},
		{name: "string", build: tagged(strs(600, mod(200))...), probe: tagged(strs(2000, mod(400))...)},
		{name: "float", build: tagged(floats...), probe: tagged(append(floats, value.NewFloat(0), negZero, value.NewFloat(3))...)},
		{name: "boxed", build: tagged(mixed...), probe: tagged(append(mixed, value.NewString("6"), value.NewBool(true))...)},
		{name: "int-vs-date", build: tagged(ints(300, mod(100))...), probe: tagged(dates(300, mod(100))...), wantNone: true},
		{name: "null", build: tagged(withNulls...), probe: tagged(withNulls...)},
		{name: "selection", build: tagged(ints(600, mod(200))...), probe: tagged(ints(3000, mod(300))...),
			preds: []predicate.Predicate{predicate.NewCmp(1, predicate.GE, value.NewInt(1000))}},
		{name: "hot-key", build: tagged(hot...), probe: tagged(ints(40, func(i int) int64 { return int64(i % 8) })...)},
		{name: "budgeted", build: budgeted, probe: keyedRows(6000, mod(5000)), budget: rowsBytes(budgeted) / 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
			ex.Workers = 2
			if tc.budget > 0 {
				ex.Mem = NewMemBudget(tc.budget)
				ex.SpillDir = t.TempDir()
			}
			op := ex.JoinOp(NewSource(tc.build), 0, Where(NewSource(tc.probe), tc.preds), 0, JoinOptions{})
			got, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			var probe []tuple.Tuple
			for _, r := range tc.probe {
				if predicate.MatchesAll(tc.preds, r) {
					probe = append(probe, r)
				}
			}
			want := NestedLoopJoin(tc.build, probe, 0, 0)
			if tc.wantNone != (len(want) == 0) {
				t.Fatalf("the oracle gives %d rows: the case does not test what it names", len(want))
			}
			rowsEqualSorted(t, got, want)
			if j := op.(*hashJoinOp); tc.budget > 0 && (!j.hasSpilled || j.spill.spilledRows.Load() == 0) {
				t.Fatal("no partition was demoted: the budget is too loose to route probe rows")
			}
		})
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
