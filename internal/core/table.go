// Package core implements the AdaptDB storage manager: tables whose rows
// live in data blocks on the distributed store, organized by one or more
// partitioning trees (§2). A table normally has a single tree; during
// smooth repartitioning (§5.2) it temporarily holds several — one per
// join attribute — and every row lives in exactly one tree.
package core

import (
	"fmt"
	"sort"
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

// TreeInfo pairs a partitioning tree with the live-bucket metadata
// (tuple counts and zone maps — the paper keeps Ranget per block in the
// tree).
type TreeInfo struct {
	Tree  *tree.Tree
	Metas map[block.ID]block.Meta
}

// Rows returns the number of rows held under this tree (|T| in the
// Fig. 11 algorithm).
func (ti *TreeInfo) Rows() int {
	n := 0
	for _, m := range ti.Metas {
		n += m.Count
	}
	return n
}

// LiveBuckets returns the bucket IDs that actually hold data, sorted.
func (ti *TreeInfo) LiveBuckets() []block.ID {
	out := make([]block.ID, 0, len(ti.Metas))
	for b := range ti.Metas {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	ti := &TreeInfo{Tree: tr, Metas: make(map[block.ID]block.Meta)}
	t.Trees = append(t.Trees, ti)
	parts := upfront.Partition(tr, rows)
	for b, blk := range parts {
		path := t.BlockPath(0, b)
		store.PutBlock(path, blk)
		ti.Metas[b] = block.MetaOf(b, blk)
	}
	t.Persist()
	return t, nil
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
	t.Trees = append(t.Trees, &TreeInfo{Tree: tr, Metas: make(map[block.ID]block.Meta)})
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

// BlockRef identifies one readable block of a table for the executor.
type BlockRef struct {
	Table   string
	TreeIdx int
	Bucket  block.ID
	Path    string
	Meta    block.Meta
}

// JoinRange returns the block's zone-map interval on the given column.
func (r BlockRef) JoinRange(col int) predicate.Range { return r.Meta.Range(col) }

// treeAt returns the live tree at idx, or nil when out of range or
// removed.
func (t *Table) treeAt(idx int) *TreeInfo {
	if idx < 0 || idx >= len(t.Trees) {
		return nil
	}
	return t.Trees[idx]
}

// Refs returns the blocks of one tree that may satisfy the predicates:
// the tree lookup (structural pruning) intersected with zone-map
// pruning, sorted by bucket.
func (t *Table) Refs(treeIdx int, preds []predicate.Predicate) []BlockRef {
	ti := t.treeAt(treeIdx)
	if ti == nil {
		return nil
	}
	ranges := predicate.ColumnRanges(preds)
	var out []BlockRef
	for _, b := range ti.Tree.Lookup(preds) {
		meta, live := ti.Metas[b]
		if !live || !meta.MaybeMatches(ranges) {
			continue
		}
		out = append(out, BlockRef{
			Table:   t.Name,
			TreeIdx: treeIdx,
			Bucket:  b,
			Path:    t.BlockPath(treeIdx, b),
			Meta:    meta,
		})
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
		meta, ok := from.Metas[b]
		if !ok {
			return fmt.Errorf("core: bucket %d not live in tree %d of %s", b, fromIdx, t.Name)
		}
		if seen[b] {
			return fmt.Errorf("core: bucket %d listed twice in a move from tree %d of %s", b, fromIdx, t.Name)
		}
		seen[b] = true
		total += meta.Count
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
		to.Metas[dest] = block.MetaOf(dest, blk)
	}
	for _, b := range buckets {
		t.store.Delete(t.BlockPath(fromIdx, b))
		delete(from.Metas, b)
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
	src.Metas = make(map[block.ID]block.Meta)
	for b, blk := range parts {
		t.store.PutBlock(t.BlockPath(srcIdx, b), blk)
		src.Metas[b] = block.MetaOf(b, blk)
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
