// The per-node execution fabric: one executor per simulated cluster
// node, locality-aware scan placement, and the Gather operator that
// merges per-node fragment streams while driving every node
// concurrently. Exchanges (exchange.go) move batches between the node
// executors; this file owns the nodes themselves.
package exec

import (
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
)

// NodeSet turns one Executor into an N-node simulated cluster: each dfs
// node gets its own executor view — a bounded worker pool pinned to that
// node plus a private meter shard — and scan work is assigned to the
// node holding a local replica of each block, falling back to metered
// remote reads for blocks placed nowhere the set can see. The planner
// compiles per-node plan fragments against these views and wires
// Exchange operators between them; Flush folds the shards back into the
// parent executor's meter once per query.
type NodeSet struct {
	parent  *Executor
	execs   []*Executor
	shards  []*cluster.Meter
	flush   func(dst *cluster.Meter)
	perNode int
}

// EnableNodes attaches a per-node execution fabric to the executor, one
// node executor per store node. workersPerNode bounds each node's task
// parallelism (0 = one worker per node — the cluster's aggregate
// parallelism then scales with its size, which is what the -nodes bench
// sweep measures). Returns the set for fluent use; Nodes() retrieves it
// later.
func (e *Executor) EnableNodes(workersPerNode int) *NodeSet {
	n := e.Store.NumNodes()
	if n < 1 {
		n = 1
	}
	if workersPerNode < 1 {
		workersPerNode = 1
	}
	shards, flush := cluster.NewShards(n)
	// Each node executor gets an equal share of the parent's memory
	// budget — the paper's per-node grouping budget generalized to every
	// operator. A nil parent budget splits into nil (unlimited) shares.
	mems := e.Mem.Split(n)
	ns := &NodeSet{parent: e, shards: shards, flush: flush, perNode: workersPerNode}
	for i := 0; i < n; i++ {
		ns.execs = append(ns.execs, &Executor{
			Store:    e.Store,
			Meter:    shards[i],
			Workers:  workersPerNode,
			NoPrune:  e.NoPrune,
			Mem:      mems[i],
			SpillDir: e.SpillDir,
			fs:       e.fs,
			pin:      dfs.NodeID(i),
			pinned:   true,
			ctx:      e.ctx,
		})
	}
	e.nodes = ns
	return ns
}

// Nodes returns the executor's node fabric, or nil for a centralized
// executor (which compiles onto the one-node fabric, ExecFabric).
func (e *Executor) Nodes() *NodeSet { return e.nodes }

// MemHeld returns the bytes still charged to the executor's budget and
// to every node view's share: 0 once its operators have closed, unless
// one leaked a charge.
func (e *Executor) MemHeld() int64 {
	held := e.Mem.Used()
	if ns := e.nodes; ns != nil {
		for _, x := range ns.execs {
			held += x.Mem.Used()
		}
	}
	return held
}

// N returns the cluster size.
func (ns *NodeSet) N() int { return len(ns.execs) }

// At returns node i's executor view: same store, worker pool bounded to
// the node's width, meter shard private to the node, and every task
// pinned to run at that node (reads of non-replica blocks are metered
// remote, the §4.2 fallback path).
func (ns *NodeSet) At(i int) *Executor { return ns.execs[i] }

// SplitRefs partitions a scan set by execution node — out[i] lists the
// blocks node i will read locally: each ref's primary replica, which
// the table's block catalog recorded when the block was written
// (HDFS-style locality scheduling).
func (ns *NodeSet) SplitRefs(refs []core.BlockRef) [][]core.BlockRef {
	n := ns.N()
	end := make([]int, n)
	for _, r := range refs {
		end[int(r.Node)%n]++
	}
	// One backing array, each node's share sized exactly.
	all := make([]core.BlockRef, len(refs))
	out := make([][]core.BlockRef, n)
	from := 0
	for i, c := range end {
		out[i] = all[from : from : from+c]
		from += c
	}
	for _, r := range refs {
		i := int(r.Node) % n
		out[i] = append(out[i], r)
	}
	return out
}

// ScanAt returns node i's share of a table scan: the refs assigned to
// node i, read on node i's own worker pool and metered into its shard.
func (ns *NodeSet) ScanAt(i int, refs []core.BlockRef, preds []predicate.Predicate) Operator {
	return ns.At(i).ScanOp(refs, preds, nil)
}

// Flush folds every node's meter shard into the parent executor's meter
// and zeroes the shards — call once per query, after the DAG is
// drained. Safe against concurrent metering (each shard is internally
// locked), but the single-merge-point contract means callers should
// only flush between queries.
func (ns *NodeSet) Flush() {
	ns.flush(ns.parent.Meter)
}

// Gather merges per-node fragment streams into one operator, opening
// and draining every child concurrently — each node's fragment runs on
// its own goroutine, so cross-node parallelism survives the merge. This
// is the coordinator's side of the cluster: the root of every
// distributed plan is a Gather, and nothing else runs there.
//
// Each child is owned entirely by its drain goroutine (Open, Next,
// Close), which keeps the Operator single-goroutine contract intact.
// Batch ownership passes from the fragment to the Gather consumer
// untouched. Output order across children is nondeterministic.
func Gather(children ...Operator) Operator {
	if len(children) == 1 {
		return children[0]
	}
	return &gatherOp{children: children}
}

type gatherOp struct {
	children []Operator
	p        pool // one worker per child; out holds 2 batches per child
}

func (g *gatherOp) Open() error {
	g.p.start(len(g.children), func(i int) { g.drain(g.children[i]) }, nil)
	return nil
}

// drain runs one child to exhaustion: open, forward batches, close.
func (g *gatherOp) drain(c Operator) {
	if err := c.Open(); err != nil {
		// Close even though Open failed: a fragment's inputs may be
		// exchange outputs shared with sibling fragments, and an output
		// that is never drained nor closed would block the exchange's
		// producers (and with them every other node) forever. All exec
		// operators tolerate Close after a failed Open.
		c.Close()
		g.p.fail(err)
		return
	}
	for {
		b, err := c.Next()
		if err != nil || b == nil {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				g.p.fail(err)
			}
			return
		}
		if !g.p.send(b) {
			c.Close()
			return
		}
	}
}

func (g *gatherOp) Next() (*Batch, error) { return g.p.next() }

func (g *gatherOp) Close() error {
	g.p.close()
	return nil
}
