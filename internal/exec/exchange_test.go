package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// nodeSetOf builds an N-node fabric over an empty store for pure
// exchange tests (no blocks involved).
func nodeSetOf(t *testing.T, n int) (*NodeSet, *Executor) {
	t.Helper()
	store := dfs.NewStore(n, 1, 1)
	ex := New(store, &cluster.Meter{})
	return ex.EnableNodes(1), ex
}

func keyRows(keys []int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = tuple.Tuple{value.NewInt(k), value.NewInt(int64(i))}
	}
	return out
}

// drainOutputs collects every output of an exchange concurrently (the
// contract: all outputs must be drained for the exchange to finish).
func drainOutputs(t *testing.T, x *Exchange, n int) [][]tuple.Tuple {
	t.Helper()
	got := make([][]tuple.Tuple, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Collect(x.Output(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
	}
	return got
}

// TestShuffleExchangeHash64Routing: hash partitioning is deterministic
// and value.Hash64-consistent — every row lands exactly on node
// Hash64(key) % N, and nothing is lost or duplicated.
func TestShuffleExchangeHash64Routing(t *testing.T) {
	const n = 4
	ns, _ := nodeSetOf(t, n)
	var keys []int64
	for i := int64(0); i < 1000; i++ {
		keys = append(keys, i%123)
	}
	rows := keyRows(keys)
	parts := make([]Operator, n)
	for i := range parts {
		// Spread the input over the nodes unevenly, like a skewed scan.
		lo, hi := i*len(rows)/n, (i+1)*len(rows)/n
		parts[i] = NewSource(rows[lo:hi])
	}
	x := ns.Shuffle(parts, 0)
	got := drainOutputs(t, x, n)
	total := 0
	for node, rs := range got {
		total += len(rs)
		for _, r := range rs {
			want := int(r[0].Hash64() % uint64(n))
			if want != node {
				t.Fatalf("row with key %v routed to node %d, Hash64%%%d says %d", r[0], node, n, want)
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("exchange delivered %d rows, want %d", total, len(rows))
	}
	// Determinism: a second identical exchange routes identically.
	parts2 := make([]Operator, n)
	for i := range parts2 {
		lo, hi := i*len(rows)/n, (i+1)*len(rows)/n
		parts2[i] = NewSource(rows[lo:hi])
	}
	got2 := drainOutputs(t, ns.Shuffle(parts2, 0), n)
	for node := range got {
		if len(got[node]) != len(got2[node]) {
			t.Fatalf("node %d: %d rows on first run, %d on second", node, len(got[node]), len(got2[node]))
		}
	}
}

// TestBroadcastDuplicatesExactlyOnce: every node's output is exactly
// the union of the nodes' fragments — no drops, no double delivery.
func TestBroadcastDuplicatesExactlyOnce(t *testing.T) {
	const n = 4
	ns, _ := nodeSetOf(t, n)
	rows := keyRows([]int64{7, 7, 1, 2, 3, 3, 3, 99})
	x := ns.Broadcast(splitSources(rows, n))
	got := drainOutputs(t, x, n)
	want := append([]tuple.Tuple(nil), rows...)
	SortRows(want)
	for node, rs := range got {
		if len(rs) != len(rows) {
			t.Fatalf("node %d got %d rows, want %d", node, len(rs), len(rows))
		}
		SortRows(rs)
		for i := range rs {
			if value.Compare(rs[i][0], want[i][0]) != 0 || value.Compare(rs[i][1], want[i][1]) != 0 {
				t.Fatalf("node %d row %d = %v, want %v", node, i, rs[i], want[i])
			}
		}
	}
}

// TestExchangeNullKeysNeverMatch: NULL join keys survive the exchange
// (routed deterministically to node 0) but never produce a match in the
// downstream per-node joins, exactly like the centralized join.
func TestExchangeNullKeysNeverMatch(t *testing.T) {
	const n = 3
	ns, _ := nodeSetOf(t, n)
	null := value.Value{}
	build := []tuple.Tuple{
		{null, value.NewInt(100)},
		{value.NewInt(1), value.NewInt(101)},
		{value.NewInt(2), value.NewInt(102)},
	}
	probe := []tuple.Tuple{
		{null, value.NewInt(200)},
		{value.NewInt(1), value.NewInt(201)},
		{null, value.NewInt(202)},
		{value.NewInt(3), value.NewInt(203)},
	}
	bx := ns.Shuffle(splitSources(build, n), 0)
	px := ns.Shuffle(splitSources(probe, n), 0)
	parts := make([]Operator, n)
	for i := 0; i < n; i++ {
		parts[i] = ns.At(i).JoinOp(bx.Output(i), 0, px.Output(i), 0, JoinOptions{})
	}
	got, err := Collect(Gather(parts...))
	if err != nil {
		t.Fatal(err)
	}
	want := NestedLoopJoin(build, probe, 0, 0)
	if len(got) != len(want) {
		t.Fatalf("exchanged join produced %d rows, oracle %d", len(got), len(want))
	}
	for _, r := range got {
		if r[0].IsNull() || r[2].IsNull() {
			t.Fatalf("NULL key matched across the exchange: %v", r)
		}
	}
}

// TestExchangeMetering: same-node deliveries are free, cross-node ones
// are charged with bytes, and a single-node fabric never pays.
func TestExchangeMetering(t *testing.T) {
	ns1, ex1 := nodeSetOf(t, 1)
	rows := keyRows([]int64{1, 2, 3, 4, 5})
	drainOutputs(t, ns1.Shuffle([]Operator{NewSource(rows)}, 0), 1)
	ns1.Flush()
	c := ex1.Meter.Snapshot()
	if c.ExchRemoteRows != 0 {
		t.Fatalf("single-node exchange metered %v remote rows", c.ExchRemoteRows)
	}
	if c.ExchLocalRows != float64(len(rows)) {
		t.Fatalf("single-node exchange metered %v local rows, want %d", c.ExchLocalRows, len(rows))
	}

	const n = 4
	ns, ex := nodeSetOf(t, n)
	var keys []int64
	for i := int64(0); i < 400; i++ {
		keys = append(keys, i)
	}
	all := keyRows(keys)
	parts := make([]Operator, n)
	for i := range parts {
		lo, hi := i*len(all)/n, (i+1)*len(all)/n
		parts[i] = NewSource(all[lo:hi])
	}
	drainOutputs(t, ns.Shuffle(parts, 0), n)
	ns.Flush()
	c = ex.Meter.Snapshot()
	if got := c.ExchLocalRows + c.ExchRemoteRows; got != float64(len(all)) {
		t.Fatalf("exchange metered %v rows total, want %d", got, len(all))
	}
	if c.ExchRemoteRows == 0 {
		t.Fatal("4-node exchange should meter some remote rows")
	}
	if c.ExchBytes <= 0 {
		t.Fatal("remote exchange rows should carry bytes")
	}

	// Broadcast of per-node fragments: each row's copy for its own node
	// is local, its N−1 other copies are remote.
	nsb, exb := nodeSetOf(t, n)
	drainOutputs(t, nsb.Broadcast(splitSources(rows, n)), n)
	nsb.Flush()
	c = exb.Meter.Snapshot()
	if c.ExchRemoteRows != float64((n-1)*len(rows)) || c.ExchLocalRows != float64(len(rows)) {
		t.Fatalf("broadcast metered %v remote and %v local rows, want %d and %d",
			c.ExchRemoteRows, c.ExchLocalRows, (n-1)*len(rows), len(rows))
	}
}

// ownedSource emits fresh, un-pooled batches of up to 200 rows and
// reports each to emit before handing it on — so a batch pointer names
// its producer for the whole test (no pool can reuse it).
type ownedSource struct {
	rows []tuple.Tuple
	emit func(*Batch)
	pos  int
}

func (s *ownedSource) Open() error  { return nil }
func (s *ownedSource) Close() error { return nil }

func (s *ownedSource) Next() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := min(s.pos+200, len(s.rows))
	b := &Batch{cols: tuple.NewColumns(len(s.rows[0]))}
	b.cols.AppendRows(s.rows[s.pos:end])
	s.pos = end
	s.emit(b)
	return b, nil
}

// TestShuffleForwardsProducersOwnRows: a hash exchange delivers every
// row exactly once, to node Hash64(key) % N (NULL keys to node 0); the
// rows a node keeps arrive in its own input batches, narrowed, never
// repacked; and the meter counts what it counted when those rows were
// repacked — the totals below are the repacking exchange's for the same
// input.
func TestShuffleForwardsProducersOwnRows(t *testing.T) {
	const n = 4
	ns, ex := nodeSetOf(t, n)
	rows := make([]tuple.Tuple, 3000)
	for i := range rows {
		k := value.NewInt(int64(i % 251))
		if i%97 == 0 {
			k = value.Value{}
		}
		rows[i] = tuple.Tuple{k, value.NewInt(int64(i)), value.NewString(strings.Repeat("x", i%13))}
	}
	// Inputs arrive with selections: the filter drops empty strings.
	keep := []predicate.Predicate{predicate.NewCmp(2, predicate.NE, value.NewString(""))}
	var mu sync.Mutex
	producer := map[*Batch]int{}
	parts := make([]Operator, n)
	wantOwn := make([]int, n)
	for p := range parts {
		lo, hi := p*len(rows)/n, (p+1)*len(rows)/n
		emit := func(b *Batch) {
			mu.Lock()
			producer[b] = p
			mu.Unlock()
		}
		parts[p] = Where(&ownedSource{rows: rows[lo:hi], emit: emit}, keep)
		for _, r := range rows[lo:hi] {
			if r[2].S != "" && routeOf(r[0], n) == p {
				wantOwn[p]++
			}
		}
	}
	x := ns.Shuffle(parts, 0)
	got := make([][]tuple.Tuple, n)
	own := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			_, errs[d] = Drain(nil, x.Output(d), func(b *Batch) error {
				mu.Lock()
				p, forwarded := producer[b]
				mu.Unlock()
				if forwarded {
					if p != d {
						return fmt.Errorf("node %d received node %d's input batch", d, p)
					}
					own[d] += b.Len()
				}
				got[d] = append(got[d], b.Rows()...)
				return nil
			})
		}(d)
	}
	wg.Wait()
	seen := make([]bool, len(rows))
	for d := 0; d < n; d++ {
		if errs[d] != nil {
			t.Fatal(errs[d])
		}
		if own[d] != wantOwn[d] {
			t.Fatalf("node %d: %d rows arrived in its own input batches, want all %d of its own", d, own[d], wantOwn[d])
		}
		for _, r := range got[d] {
			id := r[1].I
			if seen[id] {
				t.Fatalf("row %d delivered twice", id)
			}
			seen[id] = true
			if want := routeOf(r[0], n); want != d {
				t.Fatalf("row %d (key %v) delivered to node %d, want %d", id, r[0], d, want)
			}
		}
	}
	for i, r := range rows {
		if r[2].S != "" && !seen[i] {
			t.Fatalf("row %d never delivered", i)
		}
	}
	ns.Flush()
	c := ex.Meter.Snapshot()
	if c.ExchLocalRows+c.ExchRemoteRows != 2769 || c.ExchRemoteRows != 2082 || c.ExchBytes != 113553 {
		t.Fatalf("metered rows=%v remote=%v bytes=%v, want 2769, 2082, 113553",
			c.ExchLocalRows+c.ExchRemoteRows, c.ExchRemoteRows, c.ExchBytes)
	}
}

// routeOf is the shuffle's destination rule for one key.
func routeOf(k value.Value, n int) int {
	if k.IsNull() {
		return 0
	}
	return int(k.Hash64() % uint64(n))
}

// TestGatherMergesAndPropagatesErrors: Gather unions child streams and
// surfaces the first child error after the merge drains.
func TestGatherMergesAndPropagatesErrors(t *testing.T) {
	a := NewSource(keyRows([]int64{1, 2, 3}))
	b := NewSource(keyRows([]int64{4, 5}))
	rows, err := Collect(Gather(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("gather produced %d rows, want 5", len(rows))
	}

	boom := errors.New("boom")
	_, err = Collect(Gather(NewSource(keyRows([]int64{1})), &failingOp{err: boom}))
	if !errors.Is(err, boom) {
		t.Fatalf("gather error = %v, want %v", err, boom)
	}
}

// TestExchangeCloseWithoutOpen: closing an output of an exchange whose
// producers never started must return immediately instead of blocking
// on a channel nothing will ever close — the teardown path when a
// join's build side errors before its probe exchange is opened.
func TestExchangeCloseWithoutOpen(t *testing.T) {
	const n = 3
	ns, _ := nodeSetOf(t, n)
	x := ns.Broadcast(splitSources(keyRows([]int64{1, 2, 3}), n))
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			x.Output(i).Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close on a never-opened exchange output hung")
	}
}

// TestSpillIndependentOfExchangeTiming: the budget charges operator
// state, not batches in flight, so how full the exchange channels are
// while a join builds cannot change what it spills. A budgeted 2-node
// shuffle join with one worker per node runs twice — plainly, and with
// the probe exchange started first and left unconsumed until every one
// of its channels is full. Each side's fragments hold exactly the keys
// that route to their own node, so every destination has one producer
// and every build sees one fixed row order. Both runs must spill the
// same bytes and rows.
func TestSpillIndependentOfExchangeTiming(t *testing.T) {
	const n = 2
	split := func(rows []tuple.Tuple) []Operator {
		parts := make([][]tuple.Tuple, n)
		for _, r := range rows {
			d := r[0].Hash64() % n
			parts[d] = append(parts[d], r)
		}
		ops := make([]Operator, n)
		for i := range ops {
			ops[i] = NewSource(parts[i])
		}
		return ops
	}
	build := keyedRows(40_000, func(i int) int64 { return int64(i) })
	probe := keyedRows(16*DefaultBatchSize, func(i int) int64 { return int64(i * 7 % 40_000) })
	run := func(stall bool) (spilledBytes, spilledRows int64) {
		ex := New(dfs.NewStore(n, 1, 1), &cluster.Meter{})
		ex.Mem = NewMemBudget(rowsBytes(build) / 2) // each node holds about half its build
		ex.SpillDir = t.TempDir()
		ns := ex.EnableNodes(1)
		bx := ns.Shuffle(split(build), 0)
		px := ns.Shuffle(split(probe), 0)
		if stall {
			for i := 0; i < n; i++ {
				px.Output(i).Open()
			}
			deadline := time.Now().Add(5 * time.Second)
			for full := false; !full; {
				full = true
				for _, o := range px.outs {
					full = full && len(o.ch) == cap(o.ch)
				}
				if time.Now().After(deadline) {
					t.Fatal("the probe exchange's channels never filled")
				}
				time.Sleep(time.Millisecond)
			}
		}
		joins := make([]*hashJoinOp, n)
		parts := make([]Operator, n)
		for i := range parts {
			joins[i] = ns.At(i).JoinOp(bx.Output(i), 0, px.Output(i), 0, JoinOptions{}).(*hashJoinOp)
			parts[i] = joins[i]
		}
		got, err := Collect(Gather(parts...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(probe) {
			t.Fatalf("stall=%v: %d rows, want %d", stall, len(got), len(probe))
		}
		for i, j := range joins {
			spilledBytes += j.SpilledBytes()
			spilledRows += j.spill.spilledRows.Load()
			if used := ns.At(i).Mem.Used(); used != 0 {
				t.Fatalf("stall=%v: node %d budget holds %d bytes after drain", stall, i, used)
			}
		}
		return spilledBytes, spilledRows
	}
	b0, r0 := run(false)
	if b0 == 0 {
		t.Fatal("the join never spilled: the budget is too loose to test anything")
	}
	b1, r1 := run(true)
	if b0 != b1 || r0 != r1 {
		t.Fatalf("spill depends on exchange timing: %d bytes / %d rows plain, %d bytes / %d rows with full channels", b0, r0, b1, r1)
	}
}

type failingOp struct{ err error }

func (f *failingOp) Open() error           { return nil }
func (f *failingOp) Next() (*Batch, error) { return nil, f.err }
func (f *failingOp) Close() error          { return nil }
