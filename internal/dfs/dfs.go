// Package dfs is the distributed file system simulator AdaptDB stores its
// blocks in — the stand-in for HDFS in the paper's prototype (§6).
//
// The simulator keeps the exact contract AdaptDB needs from HDFS and
// nothing more: named immutable-ish files holding data blocks, replica
// placement across a fixed set of nodes, append-only writes ("because
// files are only appended in HDFS, it is possible to do this without
// affecting the correctness of any concurrent queries" — §5.2), and the
// ability to tell local from remote reads so the cluster cost model can
// account for locality (§4.2, Fig. 7). Append coordination, done with
// ZooKeeper in the paper, is two locks here: the store's mutex guards
// the file table, and each file's own lock orders the appends to it, so
// a migration writes its destination files in parallel (ARCHITECTURE.md,
// "Columnar batches", describes the migration).
//
// A file holds one contiguous block. Smooth repartitioning appends to
// it once per move, so an append that does not fit grows the block's
// vectors once, to the size its caller extrapolates the file will reach
// when the migration completes, and every append writes in place into
// that capacity. Readers never see the reserved slots: a scan views a
// block through tuple.Columns.AliasRange, whose vectors are capped at
// the rows it saw, so neither a later append nor the reserve shows
// through, and an append to the view reallocates instead of writing
// into the block.
package dfs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"adaptdb/internal/block"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
)

// NodeID identifies a simulated cluster node, in [0, NumNodes).
type NodeID int

// Store is the simulated distributed file system. All methods are safe
// for concurrent use.
type Store struct {
	mu          sync.RWMutex
	nodes       int
	replication int
	seed        int64
	files       map[string]*entry
}

type entry struct {
	blk       *block.Block
	placement []NodeID
	// app orders the appends to this file (Append).
	app sync.Mutex
}

// NewStore creates a store spanning `nodes` nodes with the given replica
// count (clamped to [1, nodes]). Placement is deterministic given the
// seed and file path.
func NewStore(nodes, replication int, seed int64) *Store {
	if nodes < 1 {
		nodes = 1
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	return &Store{
		nodes:       nodes,
		replication: replication,
		seed:        seed,
		files:       make(map[string]*entry),
	}
}

// NumNodes returns the cluster size.
func (s *Store) NumNodes() int { return s.nodes }

// place computes the deterministic replica set for a path: a hash-derived
// primary plus consecutive nodes, HDFS-style.
func (s *Store) place(path string) []NodeID {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", s.seed, path)
	primary := int(h.Sum64() % uint64(s.nodes))
	out := make([]NodeID, 0, s.replication)
	for i := 0; i < s.replication; i++ {
		out = append(out, NodeID((primary+i)%s.nodes))
	}
	return out
}

// PutBlock stores (or replaces) a data block at path.
func (s *Store) PutBlock(path string, b *block.Block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.files[path]
	if !ok {
		e = &entry{placement: s.place(path)}
		s.files[path] = e
	}
	e.blk = b
}

// GetBlock fetches the block at path as read by a task running on node
// `from`. It reports whether the read was local (from holds a replica).
func (s *Store) GetBlock(path string, from NodeID) (*block.Block, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.files[path]
	if !ok || e.blk == nil {
		return nil, false, fmt.Errorf("dfs: no block at %q", path)
	}
	return e.blk, s.isLocal(e, from), nil
}

func (s *Store) isLocal(e *entry, from NodeID) bool {
	for _, n := range e.placement {
		if n == from {
			return true
		}
	}
	return false
}

// Append appends src's physical rows idxs, in order, to the block at
// path (a columnar gather — see block.AppendGather), creating it when
// absent, and returns the block. When the block's vectors cannot take
// the rows, it grows them once, to capRows rows (or to exactly what the
// append needs, when that is more): the caller's estimate of what the
// file will hold once its migration completes. The gather then writes
// in place, past every scan's view (see the package doc). This is the
// repartitioning iterator's flush path. The file is created under the
// store's mutex; the growth and the gather, the costly part, run under
// the file's own lock only, so appends to different files proceed in
// parallel and concurrent appends to one file take turns (the paper
// uses ZooKeeper for this coordination).
func (s *Store) Append(path string, sch *schema.Schema, src *tuple.Columns, idxs []int32, capRows int) *block.Block {
	s.mu.Lock()
	e, ok := s.files[path]
	if !ok {
		e = &entry{placement: s.place(path)}
		s.files[path] = e
	}
	if e.blk == nil {
		e.blk = block.New(sch)
	}
	blk := e.blk
	s.mu.Unlock()

	e.app.Lock()
	defer e.app.Unlock()
	if need := blk.Len() + len(idxs); blk.Cols().Cap() < need {
		blk.Grow(max(need, capRows))
	}
	blk.AppendGather(src, idxs)
	return blk
}

// Delete removes a file. Deleting a missing file is a no-op, like
// `hdfs dfs -rm -f`.
func (s *Store) Delete(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, path)
}

// Exists reports whether a file exists.
func (s *Store) Exists(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[path]
	return ok
}

// List returns all paths with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Placement returns the replica nodes of a path (nil when absent).
func (s *Store) Placement(path string) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.files[path]
	if !ok {
		return nil
	}
	return append([]NodeID(nil), e.placement...)
}

// SetPlacement overrides a file's replica set. The Fig. 7 locality
// experiment uses this to force a chosen fraction of blocks remote,
// through core.Table.SetPlacement, which also moves the primary replica
// the table's block catalog records for the block.
func (s *Store) SetPlacement(path string, nodes []NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.files[path]
	if !ok {
		return fmt.Errorf("dfs: no file at %q", path)
	}
	e.placement = append([]NodeID(nil), nodes...)
	return nil
}
