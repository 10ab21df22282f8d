package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "orderkey", Kind: value.Int},
	schema.Column{Name: "partkey", Kind: value.Int},
	schema.Column{Name: "shipdate", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(10000)),
			value.NewInt(rng.Int63n(2000)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	return rows
}

func loadTable(t *testing.T, rows []tuple.Tuple, opts LoadOptions) (*Table, *dfs.Store) {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	tbl, err := Load(store, "lineitem", sch, rows, opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return tbl, store
}

func countRows(t *testing.T, tbl *Table) int {
	t.Helper()
	total := 0
	for _, i := range tbl.LiveTrees() {
		total += tbl.RowsUnder(i)
	}
	return total
}

func TestLoadUpfront(t *testing.T) {
	rows := genRows(2048, 1)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	if tbl.TotalRows() != 2048 {
		t.Fatalf("TotalRows = %d", tbl.TotalRows())
	}
	if got := countRows(t, tbl); got != 2048 {
		t.Fatalf("rows in store = %d, want 2048", got)
	}
	if len(tbl.LiveTrees()) != 1 {
		t.Fatalf("trees = %v", tbl.LiveTrees())
	}
	ti := tbl.Trees[0]
	if ti.Tree.NumBuckets() < 8 {
		t.Errorf("expected ≥8 buckets for 2048 rows @128/blk, got %d", ti.Tree.NumBuckets())
	}
	// Every live bucket's block exists in the store.
	for _, b := range ti.LiveBuckets() {
		if !store.Exists(tbl.BlockPath(0, b)) {
			t.Errorf("block %d missing from store", b)
		}
	}
}

func TestLoadTwoPhase(t *testing.T) {
	rows := genRows(2048, 2)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: 0})
	ti := tbl.Trees[0]
	if ti.Tree.JoinAttr != 0 {
		t.Fatalf("join attr = %d", ti.Tree.JoinAttr)
	}
	if ti.Tree.JoinLevels == 0 {
		t.Errorf("two-phase default should reserve half the levels")
	}
	if tbl.TreeFor(0) != 0 || tbl.TreeFor(1) != -1 {
		t.Errorf("TreeFor wrong: %d %d", tbl.TreeFor(0), tbl.TreeFor(1))
	}
}

func TestRefsPruning(t *testing.T) {
	rows := genRows(4096, 3)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	all := tbl.Refs(0, nil)
	narrow := tbl.Refs(0, []predicate.Predicate{
		predicate.NewCmp(0, predicate.LT, value.NewInt(500)),
	})
	if len(narrow) >= len(all) {
		t.Errorf("selective predicate should prune blocks: %d vs %d", len(narrow), len(all))
	}
	// Soundness: matching rows only in returned refs.
	matchBuckets := make(map[block.ID]bool)
	for _, ref := range narrow {
		matchBuckets[ref.Bucket] = true
	}
	for _, r := range rows {
		if r[0].Int64() < 500 {
			b := tbl.Trees[0].Tree.Route(r)
			if !matchBuckets[b] {
				t.Fatalf("row with orderkey %d routed to pruned bucket %d", r[0].Int64(), b)
			}
		}
	}
}

func TestAllRefsSpansTrees(t *testing.T) {
	rows := genRows(1024, 4)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	// Add a second tree and move some buckets into it.
	newTree := twophase.Builder{Schema: sch, JoinAttr: 1, JoinLevels: 2, TotalDepth: 3, Seed: 5}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	live := tbl.Trees[0].LiveBuckets()
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, live[:2], &meter); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if got := countRows(t, tbl); got != 1024 {
		t.Fatalf("rows after move = %d, want 1024", got)
	}
	refs := tbl.AllRefs(nil)
	seen := make(map[string]bool)
	rowsSeen := 0
	for _, ref := range refs {
		if seen[ref.Path] {
			t.Fatalf("duplicate ref %s", ref.Path)
		}
		seen[ref.Path] = true
		rowsSeen += ref.Count
	}
	if rowsSeen != 1024 {
		t.Fatalf("AllRefs covers %d rows, want 1024", rowsSeen)
	}
}

func TestMoveBucketsMeters(t *testing.T) {
	rows := genRows(512, 5)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	live := tbl.Trees[0].LiveBuckets()
	moved := 0
	for _, b := range live[:3] {
		moved += mustCount(t, tbl.Trees[0], b)
	}
	if err := tbl.MoveBuckets(0, idx, live[:3], &meter); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	c := meter.Snapshot()
	if int(c.ScanLocal+c.ScanRemote) != moved {
		t.Errorf("scan meter = %v, want %d rows", c.ScanLocal+c.ScanRemote, moved)
	}
	if int(c.RepartRows) != moved {
		t.Errorf("repart meter = %v, want %d", c.RepartRows, moved)
	}
	if tbl.RowsUnder(idx) != moved {
		t.Errorf("destination tree holds %d rows, want %d", tbl.RowsUnder(idx), moved)
	}
	// Moved rows route correctly in the destination tree.
	for _, b := range tbl.Trees[idx].LiveBuckets() {
		blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(idx, b), 0)
		if err != nil {
			t.Fatalf("GetBlock: %v", err)
		}
		for _, r := range blk.Rows() {
			if newTree.Route(r) != b {
				t.Fatalf("moved row in wrong destination bucket")
			}
		}
	}
}

// TestMoveBucketsKeepsSourceOrder pins the layout a migration writes:
// two calls — the second appending to blocks the first created — leave
// every destination bucket holding exactly the rows the boxed route
// sends it, in source order (buckets as listed, rows as stored), with
// the zone map the row-at-a-time fold gives. Equal block contents on
// every replica is what lets TCP workers adapt side by side.
func TestMoveBucketsKeepsSourceOrder(t *testing.T) {
	rows := genRows(1500, 9)
	rows[7][1], rows[300][1], rows[301][0] = value.Value{}, value.Value{}, value.NewString("odd") // NULL keys, a mixed-kind column
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 2, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 1, JoinLevels: 2, TotalDepth: 4, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	live := tbl.Trees[0].LiveBuckets()
	want := make(map[block.ID][]tuple.Tuple)
	var meter cluster.Meter
	for _, pick := range [][]block.ID{{live[3], live[0], live[5]}, live[6:]} {
		for _, b := range pick {
			blk, _, err := store.GetBlock(tbl.BlockPath(0, b), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range blk.Rows() {
				dest := newTree.Route(r)
				want[dest] = append(want[dest], r)
			}
		}
		if err := tbl.MoveBuckets(0, idx, pick, &meter); err != nil {
			t.Fatalf("MoveBuckets: %v", err)
		}
	}
	if got := tbl.Trees[idx].LiveBuckets(); len(got) != len(want) {
		t.Fatalf("%d destination buckets live, want %d", len(got), len(want))
	}
	for dest, rs := range want {
		blk, _, err := store.GetBlock(tbl.BlockPath(idx, dest), 0)
		if err != nil {
			t.Fatalf("bucket %d: %v", dest, err)
		}
		got := blk.Rows()
		if len(got) != len(rs) {
			t.Fatalf("bucket %d holds %d rows, want %d", dest, len(got), len(rs))
		}
		oracle := block.New(sch)
		for i, r := range rs {
			for c := range r {
				if got[i][c] != r[c] {
					t.Fatalf("bucket %d row %d col %d = %v, want %v: source order lost", dest, i, c, got[i][c], r[c])
				}
			}
			oracle.AppendRows([]tuple.Tuple{r})
		}
		if m, _ := metaOf(tbl.Trees[idx], dest); !reflect.DeepEqual(m, block.MetaOf(dest, oracle)) {
			t.Fatalf("bucket %d meta %+v, row-built %+v", dest, m, block.MetaOf(dest, oracle))
		}
	}
	if _, ok := tbl.Trees[0].Count(live[3]); ok || store.Exists(tbl.BlockPath(0, live[3])) {
		t.Errorf("moved source bucket still live")
	}
}

// BenchmarkMoveBuckets is the migration layer's own number: ns per
// moved row for draining a 64k-row tree into a two-phase tree on
// another attribute, a fifth of its buckets per call.
func BenchmarkMoveBuckets(b *testing.B) {
	rows := genRows(1<<16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := dfs.NewStore(4, 2, 1)
		tbl, err := Load(store, "lineitem", sch, rows, LoadOptions{RowsPerBlock: 256, Seed: 1, JoinAttr: 0})
		if err != nil {
			b.Fatal(err)
		}
		idx := tbl.AddTree(twophase.Builder{Schema: sch, JoinAttr: 1, JoinLevels: 4, TotalDepth: 8, Seed: 6}.Build(tbl.SampleRows))
		live := tbl.Trees[0].LiveBuckets()
		step := (len(live) + 4) / 5
		b.StartTimer()
		for len(live) > 0 {
			n := min(step, len(live))
			if err := tbl.MoveBuckets(0, idx, live[:n], nil); err != nil {
				b.Fatal(err)
			}
			live = live[n:]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
}

func TestMoveBucketsErrors(t *testing.T) {
	rows := genRows(512, 6)
	for _, tc := range []struct {
		name     string
		from, to int   // tree 1 is the destination tree
		buckets  []int // positions in tree 0's live buckets
		missing  bool  // list a bucket that is not live instead
	}{
		{"bad destination", 0, 5, []int{0}, false},
		{"missing bucket", 0, 1, nil, true},
		{"move within one tree", 0, 0, []int{0, 1}, false},
		{"bucket listed twice", 0, 1, []int{0, 1, 0}, false},
	} {
		tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
		idx := tbl.AddTree(twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 1, TotalDepth: 2, Seed: 6}.Build(tbl.SampleRows))
		live := tbl.Trees[0].LiveBuckets()
		var buckets []block.ID
		for _, p := range tc.buckets {
			buckets = append(buckets, live[p])
		}
		if tc.missing {
			buckets = append(buckets, 9999)
		}
		var meter cluster.Meter
		if err := tbl.MoveBuckets(tc.from, tc.to, buckets, &meter); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if got := countRows(t, tbl); got != len(rows) {
			t.Errorf("%s: table holds %d rows after the rejected move, want %d", tc.name, got, len(rows))
		}
		if got := tbl.RowsUnder(idx); got != 0 {
			t.Errorf("%s: rejected move wrote %d rows", tc.name, got)
		}
		if c := meter.Snapshot(); c.ScanLocal+c.ScanRemote+c.RepartRows != 0 {
			t.Errorf("%s: rejected move was metered: %v", tc.name, c)
		}
	}
}

// TestMigrationMatchesPerRowRoute replays a multi-step migration over
// NULL, NaN/−0 and mixed-kind cells — moves from the load tree into a
// second tree, from there into a third, then a full rewrite of the
// second — against a model that routes boxed rows one at a time with
// Tree.Route. After every step each live bucket must hold the model's
// rows in order (buckets as listed, rows as stored; a rewrite reads
// buckets in ascending order) and the meta a row-by-row fold gives.
func TestMigrationMatchesPerRowRoute(t *testing.T) {
	mixed := schema.MustNew(
		schema.Column{Name: "k", Kind: value.Int},
		schema.Column{Name: "f", Kind: value.Float},
		schema.Column{Name: "m", Kind: value.Int},
	)
	rng := rand.New(rand.NewSource(31))
	rows := make([]tuple.Tuple, 1200)
	for i := range rows {
		r := tuple.Tuple{
			value.NewInt(rng.Int63n(300)),
			value.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, 7, 40}[rng.Intn(6)]),
			value.NewInt(rng.Int63n(90)),
		}
		if rng.Intn(9) == 0 {
			r[0] = value.Value{}
		}
		if rng.Intn(7) == 0 {
			r[2] = value.NewString(string(rune('a' + rng.Intn(4)))) // column m mixes kinds
		}
		rows[i] = r
	}
	store := dfs.NewStore(4, 2, 1)
	tbl, err := Load(store, "mixed", mixed, rows, LoadOptions{RowsPerBlock: 64, Seed: 3, JoinAttr: -1})
	if err != nil {
		t.Fatal(err)
	}
	// model[tree][bucket] is what the bucket must hold, in order.
	model := map[int]map[block.ID][]tuple.Tuple{0: {}}
	for _, b := range tbl.Trees[0].LiveBuckets() {
		blk, _, err := store.GetBlock(tbl.BlockPath(0, b), 0)
		if err != nil {
			t.Fatal(err)
		}
		model[0][b] = blk.Rows()
	}
	addTree := func(joinAttr int, seed int64) int {
		tr := twophase.Builder{Schema: mixed, JoinAttr: joinAttr, JoinLevels: 2, TotalDepth: 4, Seed: seed}.Build(tbl.SampleRows)
		idx := tbl.AddTree(tr)
		model[idx] = map[block.ID][]tuple.Tuple{}
		return idx
	}
	move := func(from, to int, pick []block.ID) {
		t.Helper()
		tr := tbl.Trees[to].Tree
		for _, b := range pick {
			for _, r := range model[from][b] {
				dest := tr.Route(r)
				model[to][dest] = append(model[to][dest], r)
			}
			delete(model[from], b)
		}
		if err := tbl.MoveBuckets(from, to, pick, nil); err != nil {
			t.Fatalf("MoveBuckets %d -> %d: %v", from, to, err)
		}
	}
	check := func(step string) {
		t.Helper()
		for ti, buckets := range model {
			if got := tbl.Trees[ti].LiveBuckets(); len(got) != len(buckets) {
				t.Fatalf("%s: tree %d has %d live buckets, model %d", step, ti, len(got), len(buckets))
			}
			for b, want := range buckets {
				blk, _, err := store.GetBlock(tbl.BlockPath(ti, b), 0)
				if err != nil {
					t.Fatalf("%s: tree %d bucket %d: %v", step, ti, b, err)
				}
				got := blk.Rows()
				if len(got) != len(want) {
					t.Fatalf("%s: tree %d bucket %d holds %d rows, model %d", step, ti, b, len(got), len(want))
				}
				oracle := block.New(mixed)
				for i, r := range want {
					if !bytes.Equal(got[i].AppendBinary(nil), r.AppendBinary(nil)) {
						t.Fatalf("%s: tree %d bucket %d row %d = %v, model %v", step, ti, b, i, got[i], r)
					}
					oracle.AppendRows([]tuple.Tuple{r})
				}
				if m, o := mustMeta(t, tbl.Trees[ti], b), block.MetaOf(b, oracle); !metaEqual(m, o) {
					t.Fatalf("%s: tree %d bucket %d meta %+v, row-built %+v", step, ti, b, m, o)
				}
			}
		}
	}
	t1, t2 := addTree(1, 5), addTree(2, 9)
	live := tbl.Trees[0].LiveBuckets()
	move(0, t1, []block.ID{live[4], live[0], live[9]})
	check("first move")
	move(0, t1, live[10:])
	check("second move")
	l1 := tbl.Trees[t1].LiveBuckets()
	move(t1, t2, []block.ID{l1[len(l1)-1], l1[0]})
	check("move on")
	move(0, t2, []block.ID{live[1], live[2]})
	check("fourth move")

	newTree := twophase.Builder{Schema: mixed, JoinAttr: 0, JoinLevels: 1, TotalDepth: 3, Seed: 12}.Build(tbl.SampleRows)
	rewritten := map[block.ID][]tuple.Tuple{}
	for _, b := range tbl.Trees[t1].LiveBuckets() {
		for _, r := range model[t1][b] {
			dest := newTree.Route(r)
			rewritten[dest] = append(rewritten[dest], r)
		}
	}
	model[t1] = rewritten
	if err := tbl.ReplaceTreeData(t1, newTree, nil); err != nil {
		t.Fatal(err)
	}
	check("rewrite")
	if got := countRows(t, tbl); got != len(rows) {
		t.Fatalf("table holds %d rows, want %d", got, len(rows))
	}
}

// TestMoveScratchLeavesNoState moves buckets of a table with NULLs,
// strings and a mixed-kind column into a second tree and back into the
// first, on two identical tables; the second starts the move back with
// a fresh scratch. Both must end with the same blocks — rows in order,
// zone maps, catalog — so nothing of the first move's staging or
// grouping survives into the next. After each move the staging set is
// empty and its string vectors hold no header that could pin a payload.
func TestMoveScratchLeavesNoState(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "k", Kind: value.Int},
		schema.Column{Name: "s", Kind: value.String},
		schema.Column{Name: "m", Kind: value.Int},
	)
	rng := rand.New(rand.NewSource(17))
	rows := make([]tuple.Tuple, 1500)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(rng.Int63n(500)), value.NewString(string(rune('a' + rng.Intn(20)))), value.NewInt(rng.Int63n(90))}
		if rng.Intn(8) == 0 {
			rows[i][1] = value.Value{}
		}
		if rng.Intn(6) == 0 {
			rows[i][2] = value.NewString("x") // column m mixes kinds
		}
	}
	load := func() *Table {
		tbl, err := Load(dfs.NewStore(4, 2, 1), "t", sch, rows, LoadOptions{RowsPerBlock: 64, Seed: 4, JoinAttr: -1})
		if err != nil {
			t.Fatal(err)
		}
		tbl.AddTree(twophase.Builder{Schema: sch, JoinAttr: 2, JoinLevels: 2, TotalDepth: 4, Seed: 8}.Build(tbl.SampleRows))
		return tbl
	}
	emptyScratch := func(tbl *Table) {
		t.Helper()
		st := tbl.mv.staged
		if st.FullLen() != 0 {
			t.Fatalf("staging set holds %d rows after a move", st.FullLen())
		}
		for c := 0; c < st.NumCols(); c++ {
			strs := st.Col(c).Strs()
			for _, s := range strs[:cap(strs)] {
				if s != "" {
					t.Fatalf("staging column %d still holds a string header after a move", c)
				}
			}
		}
	}
	there := func(tbl *Table) {
		live := tbl.Trees[0].LiveBuckets()
		if err := tbl.MoveBuckets(0, 1, []block.ID{live[5], live[1], live[len(live)-1], live[8]}, nil); err != nil {
			t.Fatal(err)
		}
		emptyScratch(tbl)
	}
	back := func(tbl *Table) {
		if err := tbl.MoveBuckets(1, 0, tbl.Trees[1].LiveBuckets(), nil); err != nil {
			t.Fatal(err)
		}
		emptyScratch(tbl)
	}
	reused, fresh := load(), load()
	there(reused)
	there(fresh)
	back(reused)
	fresh.mv = moveScratch{}
	back(fresh)
	for ti := range reused.Trees {
		got, want := reused.Trees[ti].LiveBuckets(), fresh.Trees[ti].LiveBuckets()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tree %d: live buckets %v, fresh scratch %v", ti, got, want)
		}
		for _, b := range got {
			g, _, err := reused.store.GetBlock(reused.BlockPath(ti, b), 0)
			if err != nil {
				t.Fatal(err)
			}
			w, _, err := fresh.store.GetBlock(fresh.BlockPath(ti, b), 0)
			if err != nil {
				t.Fatal(err)
			}
			gr, wr := g.Rows(), w.Rows()
			if len(gr) != len(wr) {
				t.Fatalf("tree %d bucket %d: %d rows, fresh scratch %d", ti, b, len(gr), len(wr))
			}
			for i := range gr {
				if !bytes.Equal(gr[i].AppendBinary(nil), wr[i].AppendBinary(nil)) {
					t.Fatalf("tree %d bucket %d row %d = %v, fresh scratch %v", ti, b, i, gr[i], wr[i])
				}
			}
			if !metaEqual(block.MetaOf(b, g), block.MetaOf(b, w)) || !metaEqual(mustMeta(t, reused.Trees[ti], b), mustMeta(t, fresh.Trees[ti], b)) {
				t.Fatalf("tree %d bucket %d: zone maps differ from the fresh scratch's", ti, b)
			}
		}
	}
}

// metaEqual compares block metas by their cells' encodings, so NaN
// bounds compare equal to themselves.
func metaEqual(a, b block.Meta) bool {
	enc := func(vs []value.Value) []byte {
		var out []byte
		for _, v := range vs {
			out = v.AppendBinary(out)
		}
		return out
	}
	return a.ID == b.ID && a.Count == b.Count && len(a.Mins) == len(b.Mins) &&
		bytes.Equal(enc(a.Mins), enc(b.Mins)) && bytes.Equal(enc(a.Maxs), enc(b.Maxs))
}

func TestDropTree(t *testing.T) {
	rows := genRows(256, 7)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	if err := tbl.DropTree(0); err == nil {
		t.Fatalf("dropping non-empty tree should fail")
	}
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, tbl.Trees[0].LiveBuckets(), &meter); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if err := tbl.DropTree(0); err != nil {
		t.Fatalf("DropTree after drain: %v", err)
	}
	if got := tbl.LiveTrees(); len(got) != 1 || got[0] != idx {
		t.Errorf("LiveTrees = %v", got)
	}
	if countRows(t, tbl) != 256 {
		t.Errorf("rows lost through drain+drop")
	}
	if err := tbl.DropTree(0); err == nil {
		t.Errorf("double drop accepted")
	}
}

func TestPrimaryTree(t *testing.T) {
	rows := genRows(512, 8)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	if tbl.PrimaryTree() != 0 {
		t.Errorf("primary = %d, want 0", tbl.PrimaryTree())
	}
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, tbl.Trees[0].LiveBuckets(), &meter); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if tbl.PrimaryTree() != idx {
		t.Errorf("primary after drain = %d, want %d", tbl.PrimaryTree(), idx)
	}
}

func TestReplaceTreeData(t *testing.T) {
	rows := genRows(1024, 9)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 2, JoinLevels: 2, TotalDepth: 3, Seed: 4}.Build(tbl.SampleRows)
	var meter cluster.Meter
	if err := tbl.ReplaceTreeData(0, newTree, &meter); err != nil {
		t.Fatalf("ReplaceTreeData: %v", err)
	}
	if countRows(t, tbl) != 1024 {
		t.Fatalf("rows after replace = %d", countRows(t, tbl))
	}
	if tbl.Trees[0].Tree.JoinAttr != 2 {
		t.Errorf("tree not replaced")
	}
	c := meter.Snapshot()
	if int(c.RepartRows) != 1024 {
		t.Errorf("full repartition should write all rows: %v", c.RepartRows)
	}
	// Rows route correctly under the new tree.
	for _, b := range tbl.Trees[0].LiveBuckets() {
		blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(0, b), 0)
		if err != nil {
			t.Fatalf("GetBlock: %v", err)
		}
		for _, r := range blk.Rows() {
			if newTree.Route(r) != b {
				t.Fatalf("row misplaced after replace")
			}
		}
	}
	if err := tbl.ReplaceTreeData(7, newTree, &meter); err == nil {
		t.Errorf("replacing missing tree accepted")
	}
}

func TestZoneMapsMatchDataAfterMoves(t *testing.T) {
	rows := genRows(512, 10)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 3}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	live := tbl.Trees[0].LiveBuckets()
	if err := tbl.MoveBuckets(0, idx, live[:len(live)/2], &meter); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	for _, ti := range []int{0, idx} {
		for _, b := range tbl.Trees[ti].LiveBuckets() {
			blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(ti, b), 0)
			if err != nil {
				t.Fatalf("GetBlock: %v", err)
			}
			meta := mustMeta(t, tbl.Trees[ti], b)
			if meta.Count != blk.Len() {
				t.Errorf("meta count %d != block %d", meta.Count, blk.Len())
			}
			for col := 0; col < sch.NumCols(); col++ {
				if value.Compare(meta.Mins[col], blk.Min(col)) != 0 ||
					value.Compare(meta.Maxs[col], blk.Max(col)) != 0 {
					t.Errorf("tree %d bucket %d col %d zone map stale", ti, b, col)
				}
			}
		}
	}
}

// TestBlockPathFormat pins the store path layout, "<table>/t<tree>/b<bucket>":
// stored blocks, replicas and placement hashing all key on it.
func TestBlockPathFormat(t *testing.T) {
	tbl := &Table{Name: "lineitem"}
	for _, tc := range []struct {
		tree int
		b    block.ID
		want string
	}{{0, 0, "lineitem/t0/b0"}, {3, 17, "lineitem/t3/b17"}, {12, 1<<31 - 1, "lineitem/t12/b2147483647"}} {
		if got := tbl.BlockPath(tc.tree, tc.b); got != tc.want {
			t.Errorf("BlockPath(%d, %d) = %q, want %q", tc.tree, tc.b, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tbl.BlockPath(3, 12345) }); n > 1 {
		t.Errorf("BlockPath allocates %.0f times, want 1", n)
	}
}

// TestResplitFailedReadKeepsLayout: a re-split whose second read fails
// leaves the node's split, both buckets, the catalog and the layout
// version as they were; a node that is not a leaf pair is rejected
// before anything is read. Once the block is back, the re-split moves
// the version and keeps every row.
func TestResplitFailedReadKeepsLayout(t *testing.T) {
	tbl, store := loadTable(t, genRows(2048, 3), LoadOptions{RowsPerBlock: 128, Seed: 3, JoinAttr: -1})
	var pair *tree.Node
	tbl.Trees[0].Tree.Walk(func(n *tree.Node) {
		if pair == nil && !n.Leaf && n.Left.Leaf && n.Right.Leaf {
			pair = n
		}
	})
	if err := tbl.Resplit(0, tbl.Trees[0].Tree.Root, 2, value.NewInt(1000), nil); err == nil {
		t.Fatal("re-split of the root, not a leaf pair, succeeded")
	}
	attr, cut, v := pair.Attr, pair.Cut, tbl.Version()
	refs := tbl.Refs(0, nil)
	rPath := tbl.BlockPath(0, pair.Right.Bucket)
	rBlk, _, err := store.GetBlock(rPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Delete(rPath)
	var meter cluster.Meter
	if err := tbl.Resplit(0, pair, 2, value.NewInt(1000), &meter); err == nil {
		t.Fatal("re-split over a missing block succeeded")
	}
	if pair.Attr != attr || !reflect.DeepEqual(pair.Cut, cut) || tbl.Version() != v {
		t.Fatalf("failed re-split left split (%d, %v) version %d, want (%d, %v) %d", pair.Attr, pair.Cut, tbl.Version(), attr, cut, v)
	}
	if got := tbl.Refs(0, nil); !reflect.DeepEqual(got, refs) {
		t.Fatal("failed re-split changed the catalog")
	}
	if !store.Exists(tbl.BlockPath(0, pair.Left.Bucket)) {
		t.Fatal("failed re-split dropped the left bucket")
	}
	store.PutBlock(rPath, rBlk)
	if err := tbl.Resplit(0, pair, 2, value.NewInt(1000), &meter); err != nil {
		t.Fatal(err)
	}
	if pair.Attr != 2 || tbl.Version() <= v || countRows(t, tbl) != 2048 {
		t.Fatalf("re-split: attr %d, version %d -> %d, %d rows", pair.Attr, v, tbl.Version(), countRows(t, tbl))
	}
}
