// Package core implements the AdaptDB storage manager: tables whose rows
// live in data blocks on the distributed store, organized by one or more
// partitioning trees (§2). A table normally has a single tree; during
// smooth repartitioning (§5.2) it temporarily holds several — one per
// join attribute — and every row lives in exactly one tree.
//
// Each tree carries one columnar block catalog (catalog.go): per bucket
// the row count, store path and primary replica, per column the zone
// maps as typed min/max vectors. The planner decides from this metadata
// alone, so Refs prunes with one typed loop per predicate column and
// returns small BlockRefs that point back at the catalog instead of
// copying each block's zone map.
//
// A Table is the only code that changes its layout: smooth migration
// (MoveBuckets), tree creation and removal (AddTree, DropTree), full
// repartitioning (ReplaceTreeData), Amoeba's leaf-pair transformation
// (Resplit) and replica placement (SetPlacement). Each moves the table's
// layout version, the one signal the plan cache keys on.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/sample"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

// TreeInfo pairs a partitioning tree with its block catalog: the live
// buckets' tuple counts, store paths, primary replicas and zone maps
// (the paper keeps Ranget per block in the tree), column-major and
// indexed by bucket ID (catalog.go).
type TreeInfo struct {
	Tree *tree.Tree
	cat  *catalog
}

// Rows returns the number of rows held under this tree (|T| in the
// Fig. 11 algorithm): the catalog's running total.
func (ti *TreeInfo) Rows() int { return ti.cat.rows }

// Blocks returns the number of live buckets.
func (ti *TreeInfo) Blocks() int { return ti.cat.blocks }

// Count reports bucket b's row count and whether b is live.
func (ti *TreeInfo) Count(b block.ID) (int, bool) {
	if b < 0 || int(b) >= len(ti.cat.live) || !ti.cat.live[b] {
		return 0, false
	}
	return ti.cat.count[b], true
}

// LiveBuckets returns the bucket IDs that actually hold data, sorted.
func (ti *TreeInfo) LiveBuckets() []block.ID {
	out := make([]block.ID, 0, ti.cat.blocks)
	for b, live := range ti.cat.live {
		if live {
			out = append(out, block.ID(b))
		}
	}
	return out
}

// Table is a relation managed by AdaptDB.
type Table struct {
	Name   string
	Schema *schema.Schema
	// Trees is indexed by tree ID; removed trees leave a nil slot so
	// block paths stay stable.
	Trees []*TreeInfo
	// SampleRows is the retained data sample used to build new trees
	// ("Sampled records" in the Fig. 2 architecture).
	SampleRows []tuple.Tuple

	store     *dfs.Store
	totalRows int
	mv        moveScratch
	version   atomic.Uint64
}

// Version reports the table's layout version. Every method that
// changes the table's trees, blocks or block placement moves it, so a
// plan compiled from the layout's metadata stays valid while the
// version stands (the plan cache keys on it). Safe to call
// concurrently with other readers; a layout change must not overlap
// any read of the layout.
func (t *Table) Version() uint64 { return t.version.Load() }

// bump records a layout change. Every method that changes trees,
// blocks or placement calls it, a failed one too once it has written or
// dropped anything.
func (t *Table) bump() { t.version.Add(1) }

// LoadOptions configures the upfront partitioner run for a table.
type LoadOptions struct {
	// RowsPerBlock is the block-size analogue (64 MB in the paper).
	RowsPerBlock int
	// Depth overrides the computed tree depth when > 0.
	Depth int
	// JoinAttr, when ≥ 0, loads with a two-phase tree on that attribute.
	JoinAttr int
	// JoinLevels is the number of top levels for JoinAttr (default: half
	// the depth, the paper's default).
	JoinLevels int
	// Attrs restricts candidate selection attributes (default: all).
	Attrs []int
	// SampleSize bounds the retained sample (default 2048).
	SampleSize int
	Seed       int64
}

// Load runs the upfront partitioner: samples rows, builds the
// partitioning tree, routes every row to its bucket and writes the
// blocks to the distributed store.
func Load(store *dfs.Store, name string, sch *schema.Schema, rows []tuple.Tuple, opts LoadOptions) (*Table, error) {
	if opts.RowsPerBlock <= 0 {
		opts.RowsPerBlock = 1024
	}
	if opts.SampleSize <= 0 {
		opts.SampleSize = 2048
	}
	depth := opts.Depth
	if depth <= 0 {
		depth = upfront.DepthForBlocks(len(rows), opts.RowsPerBlock)
	}
	res := sample.NewReservoir(opts.SampleSize, opts.Seed)
	for _, r := range rows {
		res.Observe(r)
	}
	smp := append([]tuple.Tuple(nil), res.Sample()...)

	var tr *tree.Tree
	if opts.JoinAttr >= 0 {
		jl := opts.JoinLevels
		if jl <= 0 {
			jl = depth / 2
		}
		tr = twophase.Builder{
			Schema:     sch,
			JoinAttr:   opts.JoinAttr,
			JoinLevels: jl,
			SelAttrs:   opts.Attrs,
			TotalDepth: depth,
			Seed:       opts.Seed,
		}.Build(smp)
	} else {
		tr = upfront.Builder{Schema: sch, Attrs: opts.Attrs, Depth: depth, Seed: opts.Seed}.Build(smp)
	}

	t := &Table{
		Name:       name,
		Schema:     sch,
		SampleRows: smp,
		store:      store,
		totalRows:  len(rows),
	}
	t.Trees = append(t.Trees, t.newTreeInfo(tr))
	for b, blk := range upfront.Partition(tr, rows) {
		t.putBlock(0, b, blk)
	}
	return t, nil
}

// newTreeInfo pairs tr with an empty catalog over the table's columns.
func (t *Table) newTreeInfo(tr *tree.Tree) *TreeInfo {
	return &TreeInfo{Tree: tr, cat: newCatalog(t.Schema.NumCols())}
}

// putBlock writes bucket b's block of tree treeIdx to the store and
// records it in the tree's catalog.
func (t *Table) putBlock(treeIdx int, b block.ID, blk *block.Block) {
	path := t.BlockPath(treeIdx, b)
	t.store.PutBlock(path, blk)
	t.record(treeIdx, b, path, blk)
}

// record enters the block stored at path as bucket b of tree treeIdx
// into the tree's catalog, with the primary replica the store placed it
// on.
func (t *Table) record(treeIdx int, b block.ID, path string, blk *block.Block) {
	var node dfs.NodeID
	if p := t.store.Placement(path); len(p) > 0 {
		node = p[0]
	}
	t.Trees[treeIdx].cat.set(b, path, node, blk)
}

// dropBlock deletes bucket b of tree treeIdx from the store and the
// catalog.
func (t *Table) dropBlock(treeIdx int, b block.ID) {
	t.store.Delete(t.BlockPath(treeIdx, b))
	t.Trees[treeIdx].cat.drop(b)
}

// SetPlacement overrides the replica set of a ref's block and moves the
// catalog's primary replica with it (the Fig. 7 locality experiment
// forces blocks remote this way).
func (t *Table) SetPlacement(ref BlockRef, nodes []dfs.NodeID) error {
	if len(nodes) == 0 {
		return fmt.Errorf("core: block %s needs at least one replica", ref.Path)
	}
	if err := t.store.SetPlacement(ref.Path, nodes); err != nil {
		return err
	}
	t.bump()
	if ti := t.treeAt(ref.TreeIdx); ti != nil {
		ti.cat.node[ref.Bucket] = nodes[0]
	}
	return nil
}

// Store returns the underlying distributed store.
func (t *Table) Store() *dfs.Store { return t.store }

// TotalRows returns the table's row count across all trees.
func (t *Table) TotalRows() int { return t.totalRows }

// BlockPath is the store path of a bucket's block, "<table>/t<tree>/b<bucket>".
// Built with strconv in one allocation: compiles resolve a path per
// scanned block ref.
func (t *Table) BlockPath(treeIdx int, b block.ID) string {
	var num [20]byte
	var sb strings.Builder
	sb.Grow(len(t.Name) + 24)
	sb.WriteString(t.Name)
	sb.WriteString("/t")
	sb.Write(strconv.AppendInt(num[:0], int64(treeIdx), 10))
	sb.WriteString("/b")
	sb.Write(strconv.AppendInt(num[:0], int64(b), 10))
	return sb.String()
}

// LiveTrees returns the indexes of non-removed trees.
func (t *Table) LiveTrees() []int {
	var out []int
	for i, ti := range t.Trees {
		if ti != nil {
			out = append(out, i)
		}
	}
	return out
}

// TreeFor returns the index of the live tree whose join attribute is
// attr, or -1.
func (t *Table) TreeFor(attr int) int {
	for i, ti := range t.Trees {
		if ti != nil && ti.Tree.JoinAttr == attr {
			return i
		}
	}
	return -1
}

// PrimaryTree returns the index of the live tree holding the most rows,
// or -1 when the table is empty.
func (t *Table) PrimaryTree() int {
	best, bestRows := -1, -1
	for i, ti := range t.Trees {
		if ti == nil {
			continue
		}
		if r := ti.Rows(); r > bestRows {
			best, bestRows = i, r
		}
	}
	return best
}

// AddTree registers a new (initially empty) tree and returns its index.
func (t *Table) AddTree(tr *tree.Tree) int {
	t.bump()
	t.Trees = append(t.Trees, t.newTreeInfo(tr))
	return len(t.Trees) - 1
}

// DropTree removes an empty tree. Dropping a tree that still holds rows
// is an error — smooth repartitioning only removes trees once drained
// ("After the dataset finishes repartitioning, the old partitioning tree
// ... is removed", §5.2).
func (t *Table) DropTree(idx int) error {
	if idx < 0 || idx >= len(t.Trees) || t.Trees[idx] == nil {
		return fmt.Errorf("core: no tree %d on %s", idx, t.Name)
	}
	if t.Trees[idx].Rows() != 0 {
		return fmt.Errorf("core: tree %d on %s still holds %d rows", idx, t.Name, t.Trees[idx].Rows())
	}
	t.bump()
	t.Trees[idx] = nil
	return nil
}

// BlockRef identifies one readable block of a table for the executor:
// where it is (store path, primary replica) and how many rows it holds.
// Its zone maps stay in the tree's catalog, which JoinRange and
// IntZones read.
type BlockRef struct {
	Table   string
	TreeIdx int
	Bucket  block.ID
	Count   int
	Path    string
	// Node is the block's primary replica, where a scan of it runs.
	Node dfs.NodeID
	cat  *catalog
}

// JoinRange returns the block's zone-map interval on the given column —
// Ranget(x), empty when the block holds no value there.
func (r BlockRef) JoinRange(col int) predicate.Range { return r.cat.zone(r.Bucket, col) }

// treeAt returns the live tree at idx, or nil when out of range or
// removed.
func (t *Table) treeAt(idx int) *TreeInfo {
	if idx < 0 || idx >= len(t.Trees) {
		return nil
	}
	return t.Trees[idx]
}

// Refs returns the blocks of one tree that may satisfy the predicates,
// sorted by bucket, in two steps over the tree's catalog: the tree
// lookup (structural pruning) marks candidate buckets, and one typed
// loop per predicate column drops the live candidates whose zone map
// cannot overlap the column's range — block.Meta.MaybeMatches, NULL,
// NaN and cross-kind semantics included. With no predicates every leaf
// is a candidate, and the live buckets are the leaves that hold rows.
func (t *Table) Refs(treeIdx int, preds []predicate.Predicate) []BlockRef {
	ti := t.treeAt(treeIdx)
	if ti == nil {
		return nil
	}
	c := ti.cat
	ranges := predicate.ColumnRanges(preds)
	var mark []bool
	if len(ranges) > 0 {
		byCol := make([]*predicate.Range, t.Schema.NumCols())
		for col, r := range ranges {
			if col < len(byCol) {
				byCol[col] = &r
			}
		}
		mark = make([]bool, max(int(ti.Tree.NextBucket()), len(c.live)))
		ti.Tree.MarkLookup(byCol, mark)
	}
	cands := c.match(mark, ranges)
	if len(cands) == 0 {
		return nil
	}
	out := make([]BlockRef, len(cands))
	for i, b := range cands {
		out[i] = BlockRef{Table: t.Name, TreeIdx: treeIdx, Bucket: b,
			Count: c.count[b], Path: c.path[b], Node: c.node[b], cat: c}
	}
	return out
}

// AllRefs returns matching blocks from every live tree. Because each row
// lives in exactly one tree, the union over trees is a complete,
// non-duplicated scan set.
func (t *Table) AllRefs(preds []predicate.Predicate) []BlockRef {
	var out []BlockRef
	for _, i := range t.LiveTrees() {
		out = append(out, t.Refs(i, preds)...)
	}
	return out
}

// growHeadroom is the margin a migration destination grows by beyond
// its extrapolated final size (MoveBuckets), and the staging set beyond
// the move it grows for (regroup). A bucket's share of one move
// misjudges its final size by about a third either way — buckets are
// picked at random and each sends its rows to few destinations — so an
// exact extrapolation regrows often. Draining TPC-H lineitem (sf 0.03,
// 256-row blocks) between join trees three times, in five random moves
// each, 14.9% of the appends to an existing block regrew it without
// headroom and 8.6% at ×1.15 (5.3% at ×1.3), leaving 22% of a drained
// tree's capacity unused against 11%. The drain of
// TestMoveBucketsLineitemAllocatesWhatItKeeps allocates least at ×1.15:
// 1.81× the moved column bytes, against 1.93× at ×1 and 1.84× at ×1.3.
const growHeadroom = 1.15

// MoveBuckets migrates whole buckets from one tree to another: each
// row is re-routed through the destination tree on its typed cells and
// appended to its bucket's block (HDFS-append semantics; coordination
// handled by the store). The source buckets are deleted. Reads and
// writes are metered as scan + repartition-write.
//
// A source bucket's rows scatter over most of the destination tree, so
// moving bucket by bucket would append a row or two at a time. Instead
// the picked buckets are staged and grouped by destination once
// (regroup), and every destination takes all of its rows in a single
// columnar gather — in source order: buckets as listed, rows as stored.
// Smooth repartitioning fills a tree over several moves, so a
// destination whose vectors cannot take its rows grows once, to the
// rows it will hold when the rest of the table has migrated at this
// move's rate: have + incoming × (rows not yet in the tree / rows this
// move takes), times growHeadroom. Later moves then write in place.
// The destination's meta is the block's zone map, which the append
// extends by the new rows only. The destinations are written in
// parallel and entered in the catalog afterwards, in bucket order. A
// move within one tree, a bucket listed twice or one not live in the
// source is rejected before anything is read or written.
func (t *Table) MoveBuckets(fromIdx, toIdx int, buckets []block.ID, meter *cluster.Meter) error {
	from := t.treeAt(fromIdx)
	to := t.treeAt(toIdx)
	if from == nil || to == nil || fromIdx == toIdx {
		return fmt.Errorf("core: bad tree pair %d -> %d on %s", fromIdx, toIdx, t.Name)
	}
	total := 0
	seen := make(map[block.ID]bool, len(buckets))
	for _, b := range buckets {
		n, ok := from.Count(b)
		if !ok {
			return fmt.Errorf("core: bucket %d not live in tree %d of %s", b, fromIdx, t.Name)
		}
		if seen[b] {
			return fmt.Errorf("core: bucket %d listed twice in a move from tree %d of %s", b, fromIdx, t.Name)
		}
		seen[b] = true
		total += n
	}
	// The rows still to come into the tree, this move's included, per
	// row of this move, with headroom.
	rate := float64(t.totalRows-to.Rows()) / float64(max(total, 1)) * growHeadroom
	// Each write fills only its own destination's slot.
	paths := make([]string, to.Tree.NextBucket())
	dests, blks, err := t.regroup(fromIdx, buckets, total, to.Tree, meter, func(dest block.ID, staged *tuple.Columns, idxs []int32) *block.Block {
		have, _ := to.Count(dest)
		paths[dest] = t.BlockPath(toIdx, dest)
		return t.store.Append(paths[dest], t.Schema, staged, idxs, have+int(float64(len(idxs))*rate))
	})
	for k, b := range dests {
		t.record(toIdx, b, paths[b], blks[k])
	}
	return err
}

// moveScratch holds the buffers a migration stages and groups its rows
// in. It lives on the Table, so the moves of a repartitioning reuse
// them, and is reset after each move; Columns.Reset clears the string
// headers, so between moves it pins no row's payload.
type moveScratch struct {
	staged tuple.Columns
	// rows is the staging capacity reserved so far: moves differ in
	// size, so a larger one reserves growHeadroom beyond its own rows.
	rows  int
	dest  []block.ID
	route []int32
	order []int32
	start []int
	next  []int
	// dests lists a move's non-empty destinations in bucket order.
	dests []block.ID
}

// regroup is the one staged group-and-write routine of MoveBuckets,
// ReplaceTreeData and Resplit. It concatenates buckets of tree fromIdx,
// as listed, into one staging set (flat range copies, rows as stored;
// total is their row count), metering each as scan + repartition-write.
// A failed read returns before anything changed; otherwise it bumps
// the layout version and deletes the buckets. It then routes the
// staged rows through dst once (Tree.RouteCols) and groups them by
// destination bucket with a counting sort over dst's bucket IDs (the
// idiom upfront.Partition loads with), and calls write once per
// non-empty destination with the staged rows and that destination's
// physical row indexes in row order, ready for a columnar gather. It
// returns the destinations in bucket order with the block write
// returned for each. The staging set is valid only during write.
//
// Routing and writing run on one goroutine per store node, the
// executor's rule: RouteCols routes disjoint chunks of the staged rows,
// and the workers claim destinations from a shared counter, so write
// must be safe to call concurrently for different destinations. Which
// worker writes a destination does not change what it writes: the
// staging, the counting sort and the order of the result are serial.
func (t *Table) regroup(fromIdx int, buckets []block.ID, total int, dst *tree.Tree, meter *cluster.Meter, write func(dest block.ID, staged *tuple.Columns, idxs []int32) *block.Block) ([]block.ID, []*block.Block, error) {
	s := &t.mv
	staged := &s.staged
	defer staged.Reset(t.Schema.NumCols())
	staged.Reset(t.Schema.NumCols())
	if total > s.rows {
		s.rows = int(float64(total) * growHeadroom)
	}
	staged.Reserve(s.rows)
	for _, b := range buckets {
		blk, local, err := t.store.GetBlock(t.BlockPath(fromIdx, b), 0)
		if err != nil {
			return nil, nil, err
		}
		if meter != nil {
			meter.AddScan(blk.Len(), local)
			meter.AddRepartWrite(blk.Len())
		}
		staged.AppendRange(blk.Cols(), 0, blk.Len())
	}
	t.bump()
	for _, b := range buckets {
		t.dropBlock(fromIdx, b)
	}

	workers := max(t.store.NumNodes(), 1)
	n := staged.FullLen()
	s.dest = resize(s.dest[:0], n)
	s.route = dst.RouteCols(staged, s.dest, s.route, workers)
	s.start = resize(s.start[:0], int(dst.NextBucket())+1)
	clear(s.start)
	for _, b := range s.dest {
		s.start[b+1]++
	}
	s.dests = s.dests[:0]
	for b := 1; b < len(s.start); b++ {
		if s.start[b] > 0 {
			s.dests = append(s.dests, block.ID(b-1))
		}
		s.start[b] += s.start[b-1]
	}
	s.next = append(s.next[:0], s.start...)
	s.order = resize(s.order[:0], n)
	for i, b := range s.dest {
		s.order[s.next[b]] = int32(i)
		s.next[b]++
	}
	blks := make([]*block.Block, len(s.dests))
	var claimed atomic.Int64
	runWorkers(min(workers, len(s.dests)), func() {
		for k := int(claimed.Add(1) - 1); k < len(s.dests); k = int(claimed.Add(1) - 1) {
			b := s.dests[k]
			blks[k] = write(b, staged, s.order[s.start[b]:s.start[b+1]])
		}
	})
	return s.dests, blks, nil
}

// runWorkers runs fn on n goroutines, the caller's among them, and
// returns when every one has.
func runWorkers(n int, fn func()) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	fn()
	wg.Wait()
}

// ReplaceTreeData rewrites one tree in place with a new structure — the
// full-repartitioning baseline (§7.3 "Repartitioning"). All rows
// currently under tree srcIdx are staged in bucket order and re-routed
// through newTree by regroup, as MoveBuckets moves them, so each new
// block holds its rows in source order and is allocated once, at its
// exact row count; the tree metadata is replaced. Costs are metered as
// scan + repartition-write of everything moved.
func (t *Table) ReplaceTreeData(srcIdx int, newTree *tree.Tree, meter *cluster.Meter) error {
	src := t.treeAt(srcIdx)
	if src == nil {
		return fmt.Errorf("core: no tree %d on %s", srcIdx, t.Name)
	}
	ids, parts, err := t.regroup(srcIdx, src.LiveBuckets(), src.Rows(), newTree, meter, t.gatherBlock)
	// A whole tree's staging set is as large as the table; keeping it
	// for the next move would double the table's memory.
	t.mv = moveScratch{}
	if err != nil {
		return err
	}
	src.Tree = newTree
	src.cat = newCatalog(t.Schema.NumCols())
	for i, b := range ids {
		t.putBlock(srcIdx, b, parts[i])
	}
	return nil
}

// Resplit is Amoeba's transformation (§3.2): it swaps the split of n,
// an internal node of tree treeIdx whose children are both leaves, for
// (attr, cut) and re-routes the two buckets' rows through it. regroup
// stages, meters and groups the rows as a migration does — left bucket
// first, rows as stored — so each side's rows land in one new block,
// allocated at their exact count; a side left without rows is dropped.
// The rows are routed through a copy of n, which takes the new split
// only once every read has succeeded: a failed read leaves the node,
// the blocks and the catalog as they were.
func (t *Table) Resplit(treeIdx int, n *tree.Node, attr int, cut value.Value, meter *cluster.Meter) error {
	ti := t.treeAt(treeIdx)
	if ti == nil || n == nil || n.Leaf || !n.Left.Leaf || !n.Right.Leaf {
		return fmt.Errorf("core: no leaf pair to re-split in tree %d of %s", treeIdx, t.Name)
	}
	var buckets []block.ID
	total := 0
	for _, b := range []block.ID{n.Left.Bucket, n.Right.Bucket} {
		if c, ok := ti.Count(b); ok {
			buckets = append(buckets, b)
			total += c
		}
	}
	pair := tree.NewWithRoot(t.Schema, &tree.Node{Attr: attr, Cut: cut, Left: n.Left, Right: n.Right}, -1, 0)
	ids, parts, err := t.regroup(treeIdx, buckets, total, pair, meter, t.gatherBlock)
	if err != nil {
		return err
	}
	n.Attr, n.Cut = attr, cut
	for i, b := range ids {
		t.putBlock(treeIdx, b, parts[i])
	}
	return nil
}

// gatherBlock is the regroup write of ReplaceTreeData and Resplit: a
// new block holding a destination's rows, allocated at their count.
func (t *Table) gatherBlock(_ block.ID, staged *tuple.Columns, idxs []int32) *block.Block {
	nb := block.New(t.Schema)
	nb.Grow(len(idxs))
	nb.AppendGather(staged, idxs)
	return nb
}

// RowsUnder returns the row count currently held by tree idx (0 for
// removed trees).
func (t *Table) RowsUnder(idx int) int {
	if idx < 0 || idx >= len(t.Trees) || t.Trees[idx] == nil {
		return 0
	}
	return t.Trees[idx].Rows()
}
