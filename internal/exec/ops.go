// Structural operators for composing plan DAGs: per-operator
// instrumentation (Instrument) and sequential stream union (Concat).
// The planner's compiler (internal/planner) wires these around scans
// and joins to turn a plan tree into one executable, fully pipelined
// Operator.
package exec

import (
	"sync"
	"time"
)

// OpStats describes what one instrumented operator did: how many rows
// and batches flowed out of it and how long the caller spent inside its
// Open/Next calls. WallNs is inclusive time — a pull-based operator
// does its children's work inside Next, so a parent's time contains its
// subtree's.
type OpStats struct {
	Label string
	// Node is the cluster node the operator ran on (0 for every
	// fragment on the one-node fabric), or -1 for the operator above the
	// root gather — a grouped spec's group-by, which runs where the
	// gather lands (the coordinator, over TCP). Per-node stats are what
	// make execution skew visible in session results.
	Node    int
	Batches int64
	Rows    int64
	WallNs  int64
	// Cols is the column count of the widest batch the operator emitted
	// (0 before its first batch): how wide the rows it carried were.
	Cols int
	// SpilledBytes is what the operator wrote to disk run files under
	// memory pressure (hash joins under a MemBudget); 0 everywhere else.
	SpilledBytes int64
	// SpillSkippedRows are probe rows whose spill write the operator's
	// build-key filter elided (budgeted hash joins); 0 everywhere else.
	SpillSkippedRows int64
}

// byteSpiller is implemented by operators that can demote state to disk
// (the budgeted hash join); Instrument surfaces the count in OpStats.
type byteSpiller interface {
	SpilledBytes() int64
}

// spillSkipper is implemented by operators whose build-key filter can
// elide spill writes (the budgeted hash join); Instrument surfaces the
// count in OpStats.
type spillSkipper interface {
	SpillSkippedRows() int64
}

// Instrumented wraps an operator, counting batches/rows and timing
// Open/Next, and fires an optional completion hook exactly once when
// the stream is exhausted (or closed early). The planner uses the hook
// to fill JoinReport entries after a lazy DAG has actually run; session
// consumers read Stats for per-operator accounting.
type Instrumented struct {
	child  Operator
	mu     sync.Mutex
	stats  OpStats
	onDone func(OpStats)
	done   bool
}

// Instrument wraps child with stats collection under the given label.
// onDone (optional) runs once, at end of stream or at Close, whichever
// comes first.
func Instrument(label string, child Operator, onDone func(OpStats)) *Instrumented {
	return &Instrumented{child: child, stats: OpStats{Label: label, Node: -1}, onDone: onDone}
}

// AtNode tags the operator's stats with the cluster node it runs on.
// Returns the receiver for fluent wiring in the distributed compiler.
func (i *Instrumented) AtNode(node int) *Instrumented {
	i.stats.Node = node
	return i
}

// Stats returns a snapshot of the counters; complete once the stream is
// drained or closed.
func (i *Instrumented) Stats() OpStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.stats
	if s, ok := i.child.(byteSpiller); ok {
		st.SpilledBytes = s.SpilledBytes()
	}
	if s, ok := i.child.(spillSkipper); ok {
		st.SpillSkippedRows = s.SpillSkippedRows()
	}
	return st
}

// Filtered reports whether the wrapped operator is a filtered exchange
// output: a hash join finds the exchange it publishes its key filter to
// through the wrapper (FilterSink).
func (i *Instrumented) Filtered() bool {
	fs, ok := i.child.(FilterSink)
	return ok && fs.Filtered()
}

// PublishFilter hands f to the wrapped exchange output, if it is one.
func (i *Instrumented) PublishFilter(f *KeyFilter) {
	if fs, ok := i.child.(FilterSink); ok {
		fs.PublishFilter(f)
	}
}

// Open opens the child, charging setup time (a hash join drains its
// whole build side here) to this operator.
func (i *Instrumented) Open() error {
	start := time.Now()
	err := i.child.Open()
	i.mu.Lock()
	i.stats.WallNs += time.Since(start).Nanoseconds()
	i.mu.Unlock()
	return err
}

// Next forwards to the child, counting the batch through.
func (i *Instrumented) Next() (*Batch, error) {
	start := time.Now()
	b, err := i.child.Next()
	i.mu.Lock()
	i.stats.WallNs += time.Since(start).Nanoseconds()
	if b != nil {
		i.stats.Batches++
		i.stats.Rows += int64(b.Len())
		i.stats.Cols = max(i.stats.Cols, b.cols.NumCols())
	}
	fire := b == nil && err == nil && !i.done
	if fire {
		i.done = true
	}
	st, hook := i.stats, i.onDone
	i.mu.Unlock()
	if fire && hook != nil {
		hook(st)
	}
	return b, err
}

// Close closes the child and fires the completion hook if the stream
// never reached end (partial drain).
func (i *Instrumented) Close() error {
	err := i.child.Close()
	i.mu.Lock()
	fire := !i.done
	i.done = true
	st, hook := i.stats, i.onDone
	i.mu.Unlock()
	if fire && hook != nil {
		hook(st)
	}
	return err
}

// Concat streams its children one after another — the union operator a
// combination join (§5.4) needs to emit hyper output followed by the
// residual shuffle outputs. Children are opened lazily, one at a time,
// so at most one child's worker pool is live; each child is closed as
// soon as it is exhausted, and Close closes every child not yet
// exhausted, opened or not: a later child may read exchange outputs
// that sibling fragments' producers deliver to, and an output never
// drained nor closed would hold them. Row order across children is the
// concatenation order; order within a child is the child's.
func Concat(children ...Operator) Operator {
	if len(children) == 1 {
		return children[0]
	}
	return &concatOp{children: children}
}

type concatOp struct {
	children []Operator
	idx      int
}

func (c *concatOp) Open() error {
	c.idx = 0
	if len(c.children) == 0 {
		return nil
	}
	return c.children[0].Open()
}

func (c *concatOp) Next() (*Batch, error) {
	for c.idx < len(c.children) {
		b, err := c.children[c.idx].Next()
		if err != nil || b != nil {
			return b, err
		}
		// Current child exhausted: close it and move on.
		cerr := c.children[c.idx].Close()
		c.idx++
		if cerr != nil {
			return nil, cerr
		}
		if c.idx < len(c.children) {
			if err := c.children[c.idx].Open(); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func (c *concatOp) Close() error {
	var first error
	for ; c.idx < len(c.children); c.idx++ {
		if err := c.children[c.idx].Close(); first == nil {
			first = err
		}
	}
	return first
}
