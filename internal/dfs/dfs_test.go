package dfs

import (
	"fmt"
	"sync"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "k", Kind: value.Int},
)

func row(k int64) tuple.Tuple { return tuple.Tuple{value.NewInt(k)} }

func blockOf(ks ...int64) *block.Block {
	b := block.New(sch)
	for _, k := range ks {
		b.AppendRows([]tuple.Tuple{row(k)})
	}
	return b
}

// appendRows is Store.Append for row-shaped test input: transpose, then
// gather every row.
func appendRows(s *Store, path string, rows ...tuple.Tuple) {
	cols := tuple.NewColumns(sch.NumCols())
	cols.AppendRows(rows)
	idxs := make([]int32, len(rows))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	s.Append(path, sch, cols, idxs, 0)
}

func TestPutGetBlock(t *testing.T) {
	s := NewStore(4, 2, 1)
	s.PutBlock("t/0/0", blockOf(1, 2, 3))
	placement := s.Placement("t/0/0")
	if len(placement) != 2 {
		t.Fatalf("placement = %v, want 2 replicas", placement)
	}
	got, local, err := s.GetBlock("t/0/0", placement[0])
	if err != nil {
		t.Fatalf("GetBlock: %v", err)
	}
	if !local {
		t.Errorf("read from replica node should be local")
	}
	if got.Len() != 3 {
		t.Errorf("block has %d rows, want 3", got.Len())
	}
	// A node not hosting a replica reads remotely.
	var other NodeID = -1
	for n := NodeID(0); n < 4; n++ {
		isReplica := false
		for _, p := range placement {
			if p == n {
				isReplica = true
			}
		}
		if !isReplica {
			other = n
			break
		}
	}
	if other == -1 {
		t.Fatal("no non-replica node found")
	}
	if _, local, _ := s.GetBlock("t/0/0", other); local {
		t.Errorf("read from non-replica node should be remote")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore(2, 1, 1)
	if _, _, err := s.GetBlock("nope", 0); err == nil {
		t.Errorf("missing block read should error")
	}
}

func TestReplicationClamped(t *testing.T) {
	s := NewStore(2, 5, 1)
	s.PutBlock("x", blockOf(1))
	if n := len(s.Placement("x")); n != 2 {
		t.Errorf("replicas = %d, want clamped to 2", n)
	}
	s = NewStore(0, 0, 1)
	s.PutBlock("x", blockOf(1))
	if n := len(s.Placement("x")); s.NumNodes() != 1 || n != 1 {
		t.Errorf("degenerate store: nodes=%d replicas=%d", s.NumNodes(), n)
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	a := NewStore(10, 3, 7)
	b := NewStore(10, 3, 7)
	used := make(map[NodeID]int)
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("tbl/0/%d", i)
		a.PutBlock(p, blockOf(int64(i)))
		b.PutBlock(p, blockOf(int64(i)))
		pa, pb := a.Placement(p), b.Placement(p)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("placement not deterministic for %s", p)
			}
		}
		used[pa[0]]++
	}
	// All 10 nodes should host some primaries.
	if len(used) < 8 {
		t.Errorf("placement poorly spread: %v", used)
	}
}

func TestAppendCreatesAndAccumulates(t *testing.T) {
	s := NewStore(3, 1, 1)
	appendRows(s, "t/1/5", row(1), row(2))
	appendRows(s, "t/1/5", row(3))
	got, _, err := s.GetBlock("t/1/5", 0)
	if err != nil {
		t.Fatalf("GetBlock after append: %v", err)
	}
	if got.Len() != 3 {
		t.Errorf("appended block has %d rows, want 3", got.Len())
	}
	if got.Max(0).Int64() != 3 {
		t.Errorf("zone map not maintained on append")
	}
}

func TestConcurrentAppend(t *testing.T) {
	// Several "repartitioners" appending to the same file must not lose
	// rows — the ZooKeeper-coordination substitute.
	s := NewStore(4, 2, 1)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				appendRows(s, "shared", row(int64(w*perWriter+i)))
			}
		}(w)
	}
	wg.Wait()
	got, _, err := s.GetBlock("shared", 0)
	if err != nil {
		t.Fatalf("GetBlock: %v", err)
	}
	if got.Len() != writers*perWriter {
		t.Errorf("lost appends: %d rows, want %d", got.Len(), writers*perWriter)
	}
}

func TestDeleteAndExists(t *testing.T) {
	s := NewStore(2, 1, 1)
	s.PutBlock("x", blockOf(1))
	if !s.Exists("x") {
		t.Errorf("Exists(x) false after put")
	}
	s.Delete("x")
	if s.Exists("x") {
		t.Errorf("Exists(x) true after delete")
	}
	s.Delete("x") // no-op
}

func TestList(t *testing.T) {
	s := NewStore(2, 1, 1)
	s.PutBlock("t1/0/2", blockOf(1))
	s.PutBlock("t1/0/1", blockOf(1))
	s.PutBlock("t2/0/0", blockOf(1))
	got := s.List("t1/")
	if len(got) != 2 || got[0] != "t1/0/1" || got[1] != "t1/0/2" {
		t.Errorf("List(t1/) = %v", got)
	}
	if n := len(s.List("")); n != 3 {
		t.Errorf("List(\"\") = %d files, want 3", n)
	}
}

func TestSetPlacement(t *testing.T) {
	s := NewStore(4, 1, 1)
	s.PutBlock("x", blockOf(1))
	if err := s.SetPlacement("x", []NodeID{3}); err != nil {
		t.Fatalf("SetPlacement: %v", err)
	}
	if _, local, _ := s.GetBlock("x", 3); !local {
		t.Errorf("read should be local after SetPlacement")
	}
	if _, local, _ := s.GetBlock("x", 0); local {
		t.Errorf("read from node 0 should be remote")
	}
	if err := s.SetPlacement("missing", []NodeID{0}); err == nil {
		t.Errorf("SetPlacement on missing file should error")
	}
}

// TestConcurrentReadersWithMigration hammers the store the way the
// per-node executors do: N reader goroutines (one per node, each
// reading from its own vantage point, like pinned scan workers) race a
// migrator that appends, re-places, and deletes blocks. Run under -race
// by CI; correctness here is just "no panic, no torn reads".
func TestConcurrentReadersWithMigration(t *testing.T) {
	s := NewStore(4, 2, 9)
	for i := 0; i < 16; i++ {
		s.PutBlock(fmt.Sprintf("t/0/%d", i), blockOf(int64(i), int64(i+100)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(node NodeID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					blk, _, err := s.GetBlock(fmt.Sprintf("t/0/%d", i), node)
					if err == nil && blk.Len() == 0 {
						t.Error("read an empty block mid-migration")
						return
					}
					s.Placement(fmt.Sprintf("t/0/%d", i))
				}
			}
		}(NodeID(n))
	}
	for round := 0; round < 50; round++ {
		i := round % 16
		appendRows(s, fmt.Sprintf("t/1/%d", i), row(int64(round)))
		if err := s.SetPlacement(fmt.Sprintf("t/0/%d", i), []NodeID{NodeID(round % 4)}); err != nil {
			t.Fatal(err)
		}
		s.Delete(fmt.Sprintf("t/1/%d", (i+8)%16))
	}
	close(stop)
	wg.Wait()
}
