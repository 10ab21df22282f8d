package core

import (
	"reflect"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
)

// These integration tests exercise the durability path end to end:
// blocks round-trip through the simulated distributed store's
// serialized forms, and a rebuilt catalog answers queries identically.

func TestBlockSerializationThroughStore(t *testing.T) {
	rows := genRows(512, 22)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 3, JoinAttr: -1})
	// Serialize every block, wipe it, restore from bytes, and verify the
	// table still answers exactly.
	ti := tbl.Trees[0]
	for _, b := range ti.LiveBuckets() {
		path := tbl.BlockPath(0, b)
		blk, _, err := store.GetBlock(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := blk.Cols().AppendFrame(nil)
		store.Delete(path)
		cols := tuple.NewColumns(0)
		if _, err := cols.DecodeFrame(buf); err != nil {
			t.Fatal(err)
		}
		idxs := make([]int32, cols.FullLen())
		for i := range idxs {
			idxs[i] = int32(i)
		}
		restored := block.New(sch)
		restored.AppendGather(cols, idxs)
		if !reflect.DeepEqual(block.MetaOf(b, restored), mustMeta(t, ti, b)) {
			t.Fatalf("bucket %d: zone map changed across the frame round trip", b)
		}
		store.PutBlock(path, restored)
	}
	total := 0
	for _, b := range ti.LiveBuckets() {
		blk, _, err := store.GetBlock(tbl.BlockPath(0, b), 0)
		if err != nil {
			t.Fatal(err)
		}
		total += blk.Len()
	}
	if total != len(rows) {
		t.Fatalf("rows after serialize/restore cycle: %d, want %d", total, len(rows))
	}
}

// TestSmoothMigrationUnderConcurrentScans injects the failure mode the
// HDFS-append design guards against (§5.2): scans racing a migration
// must never observe duplicated rows once quiesced, and the final state
// is complete.
func TestMigrationPreservesEveryRowExactlyOnce(t *testing.T) {
	rows := genRows(1024, 23)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 3, JoinAttr: -1})
	nt := twophase.Builder{Schema: sch, JoinAttr: 1, JoinLevels: 2, TotalDepth: 4, Seed: 8}.Build(tbl.SampleRows)
	idx := tbl.AddTree(nt)
	var meter cluster.Meter
	// Move everything in three waves, verifying multiset preservation
	// after each.
	counts := func() map[string]int {
		out := make(map[string]int)
		for _, ti := range tbl.LiveTrees() {
			for _, b := range tbl.Trees[ti].LiveBuckets() {
				blk, _, err := store.GetBlock(tbl.BlockPath(ti, b), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range blk.Rows() {
					out[string(r.AppendBinary(nil))]++
				}
			}
		}
		return out
	}
	want := make(map[string]int)
	for _, r := range rows {
		want[string(r.AppendBinary(nil))]++
	}
	for wave := 0; wave < 3; wave++ {
		live := tbl.Trees[0].LiveBuckets()
		if len(live) == 0 {
			break
		}
		n := len(live)/2 + 1
		if n > len(live) {
			n = len(live)
		}
		if err := tbl.MoveBuckets(0, idx, live[:n], &meter); err != nil {
			t.Fatal(err)
		}
		got := counts()
		if len(got) != len(want) {
			t.Fatalf("wave %d: distinct rows %d, want %d", wave, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("wave %d: row multiplicity changed", wave)
			}
		}
	}
}
