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
package core

import (
	"fmt"
	"strconv"
	"strings"

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
}

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
	t.Persist()
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

// RewriteBucket replaces bucket b of tree treeIdx with blk, or drops the
// bucket when blk is empty — how Amoeba's transformations write the
// two buckets they re-split.
func (t *Table) RewriteBucket(treeIdx int, b block.ID, blk *block.Block) {
	if blk.Len() == 0 {
		t.dropBlock(treeIdx, b)
		return
	}
	t.putBlock(treeIdx, b, blk)
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

// treePath is the store path of a tree's serialized metadata.
func (t *Table) treePath(treeIdx int) string {
	return fmt.Sprintf("%s/meta/tree%d", t.Name, treeIdx)
}

// Persist writes every live tree's structure to the store, as the paper
// stores tree metadata on HDFS alongside the data.
func (t *Table) Persist() {
	for i, ti := range t.Trees {
		if ti == nil {
			continue
		}
		t.store.PutBytes(t.treePath(i), ti.Tree.AppendBinary(nil))
	}
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
	t.Trees = append(t.Trees, t.newTreeInfo(tr))
	idx := len(t.Trees) - 1
	t.Persist()
	return idx
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
	t.store.Delete(t.treePath(idx))
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

// MoveBuckets migrates whole buckets from one tree to another: each
// row is re-routed through the destination tree on its typed cells and
// appended to its bucket's block (HDFS-append semantics; coordination
// handled by the store). The source buckets are deleted. Reads and
// writes are metered as scan + repartition-write.
//
// A source bucket's rows scatter over most of the destination tree, so
// moving bucket by bucket would append a row or two at a time. Instead
// the picked buckets are first concatenated into one staging set (flat
// range copies), routed once (Tree.RouteCols), grouped by destination
// with a counting sort over the tree's bucket IDs, and every
// destination takes all of its rows in a single columnar gather — in
// source order: buckets as listed, rows as stored. The destination's
// meta is the block's zone map, which the append extends by the new
// rows only. A move within one tree, a bucket listed twice or one not
// live in the source is rejected before anything is read or written.
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
	staged := tuple.NewColumns(t.Schema.NumCols())
	staged.Reserve(total)
	for _, b := range buckets {
		blk, local, err := t.store.GetBlock(t.BlockPath(fromIdx, b), 0)
		if err != nil {
			return err
		}
		if meter != nil {
			meter.AddScan(blk.Len(), local)
			meter.AddRepartWrite(blk.Len())
		}
		staged.AppendRange(blk.Cols(), 0, blk.Len())
	}
	order, start := groupByBucket(to.Tree, staged)
	for b := range start[:len(start)-1] {
		idxs := order[start[b]:start[b+1]]
		if len(idxs) == 0 {
			continue
		}
		dest := block.ID(b)
		path := t.BlockPath(toIdx, dest)
		t.store.Append(path, t.Schema, staged, idxs)
		blk, _, err := t.store.GetBlock(path, 0)
		if err != nil {
			return err
		}
		t.record(toIdx, dest, path, blk)
	}
	for _, b := range buckets {
		t.dropBlock(fromIdx, b)
	}
	return nil
}

// groupByBucket routes the physical rows of cols through tr and groups
// them by bucket with a counting sort (the idiom upfront.Partition
// loads with): bucket b's rows are order[start[b]:start[b+1]], in row
// order, ready for a columnar gather.
func groupByBucket(tr *tree.Tree, cols *tuple.Columns) (order []int32, start []int) {
	dest := make([]block.ID, cols.FullLen())
	tr.RouteCols(cols, dest)
	start = make([]int, tr.NextBucket()+1)
	for _, b := range dest {
		start[b+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	next := append([]int(nil), start...)
	order = make([]int32, len(dest))
	for i, b := range dest {
		order[next[b]] = int32(i)
		next[b]++
	}
	return order, start
}

// ReplaceTreeData rewrites one tree in place with a new structure — the
// full-repartitioning baseline (§7.3 "Repartitioning") and Amoeba's
// selection-driven subtree rebuilds both land here. All rows currently
// under tree srcIdx are re-routed through newTree, block by block in
// bucket order and grouped by destination as MoveBuckets does, so each
// new block holds its rows in source order; blocks are rewritten; the
// tree metadata is replaced. Costs are metered as scan +
// repartition-write of everything moved.
func (t *Table) ReplaceTreeData(srcIdx int, newTree *tree.Tree, meter *cluster.Meter) error {
	src := t.treeAt(srcIdx)
	if src == nil {
		return fmt.Errorf("core: no tree %d on %s", srcIdx, t.Name)
	}
	parts := make(map[block.ID]*block.Block)
	for _, b := range src.LiveBuckets() {
		path := t.BlockPath(srcIdx, b)
		blk, local, err := t.store.GetBlock(path, 0)
		if err != nil {
			return err
		}
		if meter != nil {
			meter.AddScan(blk.Len(), local)
			meter.AddRepartWrite(blk.Len())
		}
		cols := blk.Cols()
		order, start := groupByBucket(newTree, cols)
		for dest := range start[:len(start)-1] {
			idxs := order[start[dest]:start[dest+1]]
			if len(idxs) == 0 {
				continue
			}
			nb, ok := parts[block.ID(dest)]
			if !ok {
				nb = block.New(t.Schema)
				parts[block.ID(dest)] = nb
			}
			nb.AppendGather(cols, idxs)
		}
		t.store.Delete(path)
	}
	src.Tree = newTree
	src.cat = newCatalog(t.Schema.NumCols())
	for b, blk := range parts {
		t.putBlock(srcIdx, b, blk)
	}
	t.Persist()
	return nil
}

// RowsUnder returns the row count currently held by tree idx (0 for
// removed trees).
func (t *Table) RowsUnder(idx int) int {
	if idx < 0 || idx >= len(t.Trees) || t.Trees[idx] == nil {
		return 0
	}
	return t.Trees[idx].Rows()
}
