package amoeba

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
	"adaptdb/internal/workload"
)

// bucketState is one live bucket's block and catalog entry.
type bucketState struct {
	rows []tuple.Tuple
	ref  core.BlockRef
}

// snapshotBuckets records every live bucket of tree 0: its stored rows
// and its catalog entry.
func snapshotBuckets(t *testing.T, tbl *core.Table) map[block.ID]bucketState {
	t.Helper()
	out := map[block.ID]bucketState{}
	for _, ref := range tbl.Refs(0, nil) {
		blk, _, err := tbl.Store().GetBlock(ref.Path, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[ref.Bucket] = bucketState{rows: blk.Rows(), ref: ref}
	}
	return out
}

// splitOf is one internal node's split.
type splitOf struct {
	attr int
	cut  value.Value
}

// TestResplitParity pins what one Amoeba transformation does to the
// table, against a row-wise oracle: the leaf pair's rows, left bucket
// first and each bucket's rows as stored, go to the left bucket when
// their cell is at or below the new cut (value.Compare) and to the
// right one otherwise; a side left without rows is dropped. After each
// of several single transformations it compares both buckets' blocks
// row for row, their zone maps in the block and in the catalog, every
// catalog entry (count, path, primary replica), and the meter's
// Counters: each of the pair's blocks read once from node 0 and
// rewritten once. Column c holds NULLs, so the untyped compare path is
// covered too.
func TestResplitParity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]tuple.Tuple, 3000)
		for i := range rows {
			c := value.NewInt(rng.Int63n(1000))
			if rng.Intn(10) == 0 {
				c = value.Value{}
			}
			rows[i] = tuple.Tuple{value.NewInt(rng.Int63n(1000)), value.NewInt(rng.Int63n(1000)), c}
		}
		store := dfs.NewStore(4, 2, seed)
		tbl, err := core.Load(store, "t", sch, rows, core.LoadOptions{
			RowsPerBlock: 128, Seed: seed, JoinAttr: -1, Attrs: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		a := New(workload.NewWindow(10))
		a.MaxMovesPerStep = 1
		applied := 0
		for step := 0; step < 12; step++ {
			a.Window.Add(workload.Query{JoinAttr: -1, Preds: cPred(100 + 70*int64(step))})
			before := snapshotBuckets(t, tbl)
			splits := map[*tree.Node]splitOf{}
			tbl.Trees[0].Tree.Walk(func(n *tree.Node) {
				if !n.Leaf {
					splits[n] = splitOf{n.Attr, n.Cut}
				}
			})
			var meter cluster.Meter
			n, err := a.Step(tbl, 0, &meter)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				if c := meter.Snapshot(); c != (cluster.Counters{}) {
					t.Fatalf("seed %d step %d: no transformation, meter %+v", seed, step, c)
				}
				continue
			}
			applied++
			var node *tree.Node
			for nd, s := range splits {
				if nd.Attr != s.attr || value.Compare(nd.Cut, s.cut) != 0 || nd.Cut.K != s.cut.K {
					if node != nil {
						t.Fatalf("seed %d step %d: more than one split changed", seed, step)
					}
					node = nd
				}
			}
			if node == nil {
				t.Fatalf("seed %d step %d: a transformation changed no split", seed, step)
			}
			checkResplit(t, tbl, node, before, meter.Snapshot())
		}
		t.Logf("seed %d: %d transformations", seed, applied)
		if applied < 2 {
			t.Fatalf("seed %d: only %d transformations; the test compares too little", seed, applied)
		}
	}
}

// checkResplit compares the table after one transformation of node
// with what the row-wise oracle derives from the snapshot before it.
func checkResplit(t *testing.T, tbl *core.Table, node *tree.Node, before map[block.ID]bucketState, got cluster.Counters) {
	t.Helper()
	pair := []block.ID{node.Left.Bucket, node.Right.Bucket}
	var want cluster.Meter
	var left, right []tuple.Tuple
	for _, b := range pair {
		st, ok := before[b]
		if !ok {
			continue
		}
		local := false
		for _, nd := range tbl.Store().Placement(st.ref.Path) {
			local = local || nd == 0
		}
		want.AddScan(len(st.rows), local)
		want.AddRepartWrite(len(st.rows))
		for _, r := range st.rows {
			if value.Compare(r[node.Attr], node.Cut) <= 0 {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	}
	if w := want.Snapshot(); got != w {
		t.Fatalf("meter %+v, want %+v", got, w)
	}

	after := snapshotBuckets(t, tbl)
	for b, st := range before {
		if b == pair[0] || b == pair[1] {
			continue
		}
		if !reflect.DeepEqual(after[b], st) {
			t.Fatalf("bucket %d outside the pair changed", b)
		}
	}
	for k, wantRows := range [][]tuple.Tuple{left, right} {
		b := pair[k]
		path := tbl.BlockPath(0, b)
		st, live := after[b]
		if len(wantRows) == 0 {
			if live || tbl.Store().Exists(path) {
				t.Fatalf("bucket %d: empty side still live (catalog %v, store %v)", b, live, tbl.Store().Exists(path))
			}
			continue
		}
		if !live {
			t.Fatalf("bucket %d: %d rows expected, bucket not live", b, len(wantRows))
		}
		if !reflect.DeepEqual(st.rows, wantRows) {
			t.Fatalf("bucket %d: block rows differ from the oracle's %d rows (got %d)", b, len(wantRows), len(st.rows))
		}
		if st.ref.Count != len(wantRows) || st.ref.Path != path || st.ref.Node != tbl.Store().Placement(path)[0] {
			t.Fatalf("bucket %d: catalog count %d path %q node %d, want %d %q %d",
				b, st.ref.Count, st.ref.Path, st.ref.Node, len(wantRows), path, tbl.Store().Placement(path)[0])
		}
		if n, ok := tbl.Trees[0].Count(b); !ok || n != len(wantRows) {
			t.Fatalf("bucket %d: tree count %d/%v, want %d", b, n, ok, len(wantRows))
		}
		oracle := block.New(sch)
		oracle.AppendRows(wantRows)
		stored, _, err := tbl.Store().GetBlock(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for col := 0; col < sch.NumCols(); col++ {
			w := oracle.Range(col)
			if r := stored.Range(col); !reflect.DeepEqual(r, w) {
				t.Fatalf("bucket %d col %d: block zone %v, want %v", b, col, r, w)
			}
			if r := st.ref.JoinRange(col); !reflect.DeepEqual(r, w) {
				t.Fatalf("bucket %d col %d: catalog zone %v, want %v", b, col, r, w)
			}
		}
	}
}
