package exec

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// poolBlock is a block the pool tests alias batches over: an alias
// batch's Release drops its view, so FullLen() == 0 marks a released
// batch.
func poolBlock() *tuple.Columns {
	c := tuple.NewColumns(1)
	for i := 0; i < 8; i++ {
		c.AppendRow(tuple.Tuple{value.NewInt(int64(i))})
	}
	return c
}

// TestPoolFirstErrorAfterEveryWorker: the first recorded error wins,
// and next surfaces it only once every worker has exited — a batch a
// worker sends after the failure still reaches the consumer first.
func TestPoolFirstErrorAfterEveryWorker(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	blk := poolBlock()
	var p pool
	waitFailed := func() {
		for !p.failing() {
			runtime.Gosched()
		}
	}
	p.start(3, func(id int) {
		switch id {
		case 0:
			p.fail(first)
		case 1:
			waitFailed()
			p.fail(second)
		case 2:
			waitFailed()
			p.send(aliasBatch(blk, 0, blk.FullLen()))
		}
	}, nil)
	defer p.close()
	b, err := p.next()
	if err != nil || b == nil {
		t.Fatalf("first next = %v, %v; want the batch sent after the failure", b, err)
	}
	b.Release()
	if b, err := p.next(); b != nil || !errors.Is(err, first) {
		t.Fatalf("end of stream = %v, %v; want nil, %v", b, err, first)
	}
	if got := p.rows.Load(); got != int64(blk.FullLen()) {
		t.Errorf("rows = %d, want %d", got, blk.FullLen())
	}
}

// TestPoolThen: then runs after every worker and before the end of the
// stream, and is skipped once a worker failed.
func TestPoolThen(t *testing.T) {
	blk := poolBlock()
	var p pool
	p.start(2, func(int) { p.send(aliasBatch(blk, 0, 1)) }, func() {
		p.send(aliasBatch(blk, 0, blk.FullLen()))
	})
	defer p.close()
	var sizes []int
	for {
		b, err := p.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, b.Len())
		b.Release()
	}
	if len(sizes) != 3 || sizes[2] != blk.FullLen() {
		t.Fatalf("batch sizes %v, want two worker batches of 1 row, then then's %d rows", sizes, blk.FullLen())
	}

	failure := errors.New("worker failed")
	var q pool
	ran := false
	q.start(2, func(id int) {
		if id == 0 {
			q.fail(failure)
		}
	}, func() { ran = true })
	defer q.close()
	if b, err := q.next(); b != nil || !errors.Is(err, failure) {
		t.Fatalf("failed stream = %v, %v; want nil, %v", b, err, failure)
	}
	if ran {
		t.Error("then ran after a worker failed")
	}
}

// TestPoolCloseBeforeNext: close before any next releases every batch
// the workers queued or were blocked sending, and leaves no worker
// behind; a later next reads the end of the stream.
func TestPoolCloseBeforeNext(t *testing.T) {
	blk := poolBlock()
	var mu sync.Mutex
	var sent []*Batch
	var p pool
	queued := make(chan struct{})
	// 2 workers × 4 batches: the out buffer (2 × 2) fills and every
	// worker blocks in send before the consumer closes.
	p.start(2, func(int) {
		for k := 0; k < 4; k++ {
			b := aliasBatch(blk, 0, blk.FullLen())
			mu.Lock()
			sent = append(sent, b)
			if len(sent) == 5 {
				close(queued)
			}
			mu.Unlock()
			if !p.send(b) {
				return
			}
		}
	}, nil)
	<-queued
	p.close()
	p.close() // idempotent
	if b, err := p.next(); b != nil || err != nil {
		t.Fatalf("next after close = %v, %v; want the end of the stream", b, err)
	}
	for i, b := range sent {
		if b.Cols().FullLen() != 0 {
			t.Errorf("batch %d of %d not released", i, len(sent))
		}
	}
	VerifyNoLeaks(t)

	var never pool
	never.close() // a pool that never started: close is a no-op
	if b, err := never.next(); b != nil || err != nil {
		t.Fatalf("never-started next = %v, %v; want the end of the stream", b, err)
	}
}

// hyperFragments builds one hyper-join fragment per node of a 4-node
// query view over a plan whose build blocks skip node 3, so node 3's
// fragment holds no group and ends at once (the first batch comes from
// the others). It returns the fragments and the views: the query
// executor, then each node's.
func hyperFragments(t *testing.T, dir string) ([]*HyperJoinOp, []*Executor) {
	f := newFixture(t, true)
	ex := f.ex.ForQuery(QueryCtx{Mem: NewMemBudget(1 << 30), SpillDir: dir, Distributed: true})
	ns := ex.Nodes()
	var build []core.BlockRef
	for _, ref := range f.line.Refs(0, nil) {
		if int(ref.Node)%ns.N() != 3 {
			build = append(build, ref)
		}
	}
	plan := PlanHyper(build, 0, f.ord.Refs(0, nil), 0, 4)
	views := []*Executor{ex}
	var frags []*HyperJoinOp
	for i, groups := range plan.SplitByNode(ns.N()) {
		h := ns.At(i).NewHyperFragment(plan, groups, nil, nil, nil, nil, false)
		if i == 3 && len(h.groups) != 0 {
			t.Fatalf("node 3's fragment holds %d groups", len(h.groups))
		}
		frags = append(frags, h)
		views = append(views, ns.At(i))
	}
	return frags, views
}

// TestEarlyCloseReleasesEverything closes every operator that runs on
// the pool after its first batch, twice: no goroutine, budget byte or
// spill file may outlive Close.
func TestEarlyCloseReleasesEverything(t *testing.T) {
	orders, lineitem := genOrders(2000, 90), genLineitem(40000, 91)
	// join builds a hash join over orders and lineitem on a two-node
	// store's query view with the given budget (0: unbudgeted).
	join := func(budget int64) func(t *testing.T, dir string) (Operator, []*Executor) {
		return func(t *testing.T, dir string) (Operator, []*Executor) {
			q := QueryCtx{SpillDir: dir}
			if budget > 0 {
				q.Mem = NewMemBudget(budget)
			}
			ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{}).ForQuery(q)
			return ex.JoinOp(NewSource(orders), 0, NewSource(lineitem), 0, JoinOptions{}), []*Executor{ex}
		}
	}
	// spilled reports that Open left the join with demoted partitions,
	// and whether any partition stayed resident for the first pass.
	spilled := func(op Operator) (demoted, resident bool) {
		j := op.(*hashJoinOp)
		return j.hasSpilled, j.buildRows > 0
	}
	cases := []struct {
		name string
		op   func(t *testing.T, dir string) (Operator, []*Executor)
		// opened checks, after Open, that the case exercises its path.
		opened func(t *testing.T, op Operator)
	}{
		{name: "scan", op: func(t *testing.T, dir string) (Operator, []*Executor) {
			f := newFixture(t, true)
			ex := f.ex.ForQuery(QueryCtx{SpillDir: dir})
			return ex.TableScanOp(f.line, nil), []*Executor{ex}
		}},
		{name: "hash-join", op: join(0)},
		{name: "spill-first-pass", op: join(64 << 10), opened: func(t *testing.T, op Operator) {
			// Resident partitions emit while the probe runs; the first
			// pass's output is far more than the out buffer holds, so
			// Close lands before the second pass.
			if demoted, resident := spilled(op); !demoted || !resident {
				t.Fatalf("demoted %v, resident %v: want both", demoted, resident)
			}
		}},
		{name: "spill-second-pass", op: join(512), opened: func(t *testing.T, op Operator) {
			// Every partition was demoted: every output batch comes from
			// the second pass.
			if demoted, resident := spilled(op); !demoted || resident {
				t.Fatalf("demoted %v, resident %v: want every partition demoted", demoted, resident)
			}
		}},
		{name: "hyper-join", op: func(t *testing.T, dir string) (Operator, []*Executor) {
			f := newFixture(t, true)
			ex := f.ex.ForQuery(QueryCtx{Mem: NewMemBudget(1 << 30), SpillDir: dir})
			plan := PlanHyper(f.line.Refs(0, nil), 0, f.ord.Refs(0, nil), 0, 4)
			return ex.NewHyperJoinOp(plan, nil, nil, false), []*Executor{ex}
		}},
		{name: "hyper-per-node", op: func(t *testing.T, dir string) (Operator, []*Executor) {
			frags, views := hyperFragments(t, dir)
			parts := make([]Operator, len(frags))
			for i, h := range frags {
				parts[i] = h
			}
			return Gather(parts...), views
		}},
		{name: "combination-per-node", op: func(t *testing.T, dir string) (Operator, []*Executor) {
			// Node i concatenates its hyper fragment with its output of a
			// filtered shuffle join: a node closed before its shuffle join
			// opens must still release the exchanges its siblings feed. The
			// build side sends each node more batches than its queue holds.
			frags, views := hyperFragments(t, dir)
			ns := views[0].Nodes()
			_, joins := filteredShuffleJoin(ns, splitSources(lineitem, ns.N()), splitSources(orders, ns.N()))
			parts := make([]Operator, len(frags))
			for i, h := range frags {
				parts[i] = Concat(h, joins[i])
			}
			return Gather(parts...), views
		}},
		{name: "gather", op: func(t *testing.T, dir string) (Operator, []*Executor) {
			const n = 4
			ex := New(dfs.NewStore(n, 1, 1), &cluster.Meter{}).ForQuery(QueryCtx{
				Mem: NewMemBudget(256 << 10), SpillDir: dir, Distributed: true,
			})
			ns := ex.Nodes()
			_, parts := filteredShuffleJoin(ns, splitSources(orders, n), splitSources(lineitem, n))
			views := []*Executor{ex}
			for i := 0; i < n; i++ {
				views = append(views, ns.At(i))
			}
			return Gather(parts...), views
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			op, views := c.op(t, dir)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if c.opened != nil {
				c.opened(t, op)
			}
			b, err := op.Next()
			if err != nil || b == nil {
				t.Fatalf("first batch: %v, %v", b, err)
			}
			b.Release()
			for i := 0; i < 2; i++ { // a second Close is a no-op
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
			}
			VerifyNoLeaks(t)
			for i, ex := range views {
				if used := ex.Mem.Used(); used != 0 {
					t.Errorf("executor %d: %d budget bytes charged after Close", i, used)
				}
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Errorf("spill dir holds %d entries after Close", len(ents))
			}
		})
	}
}
