package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// filteredShuffleJoin wires the planner's shuffle join by hand: both
// sides hash-exchanged on column 0, the probe exchange filtered, node i
// joining the two i-th outputs.
func filteredShuffleJoin(ns *NodeSet, build, probe []Operator) (*Exchange, []Operator) {
	bx := ns.Shuffle(build, 0)
	px := ns.Shuffle(probe, 0)
	px.FilterProbe()
	parts := make([]Operator, ns.N())
	for i := range parts {
		parts[i] = ns.At(i).JoinOp(bx.Output(i), 0, px.Output(i), 0, JoinOptions{})
	}
	return px, parts
}

// splitSources deals rows over n source fragments.
func splitSources(rows []tuple.Tuple, n int) []Operator {
	parts := make([]Operator, n)
	for i := range parts {
		parts[i] = NewSource(rows[i*len(rows)/n : (i+1)*len(rows)/n])
	}
	return parts
}

// TestKeyFilterNoFalseNegatives: every filter a sealed join publishes
// passes every key its node's build holds, resident or spilled, with
// and without demoted partitions, and a node whose build is empty
// rejects every key.
func TestKeyFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var keys []int64
	for i := 0; i < 20_000; i++ {
		keys = append(keys, rng.Int63n(1<<40))
	}
	build := keyRows(keys)
	for _, budget := range []int64{0, 64 << 10} {
		const n = 4
		store := dfs.NewStore(n, 1, 1)
		ex := New(store, &cluster.Meter{})
		if budget > 0 {
			ex.Mem = NewMemBudget(budget)
			ex.SpillDir = t.TempDir()
		}
		ns := ex.EnableNodes(1)
		px, parts := filteredShuffleJoin(ns, splitSources(build, n), splitSources(keyRows([]int64{-1}), n))
		if _, err := Collect(Gather(parts...)); err != nil {
			t.Fatal(err)
		}
		fs := px.filters.All()
		demoted := 0
		for d, f := range fs {
			if f == nil {
				t.Fatalf("budget %d: node %d published no filter", budget, d)
			}
			if parts[d].(*hashJoinOp).hasSpilled {
				demoted++
			}
		}
		for _, r := range build {
			h := r[0].Hash64()
			if !fs[h%n].mayPass(h) {
				t.Fatalf("budget %d: node %d's filter rejects build key %v", budget, h%n, r[0])
			}
		}
		if budget > 0 && demoted == 0 {
			t.Fatalf("budget %d demoted nothing; spilled build keys went untested", budget)
		}
		if used := ex.Mem.Used(); used != 0 {
			t.Fatalf("budget %d: %d bytes still charged", budget, used)
		}
	}
	empty := newKeyFilter()
	for i := int64(0); i < 1000; i++ {
		if h := value.NewInt(i).Hash64(); empty.mayPass(h) {
			t.Fatalf("an empty build's filter passes %#x", h)
		}
	}
}

// TestFilteredShuffleMatchesOracle runs filtered shuffle joins at 1, 2
// and 4 nodes against the nested-loop oracle — NULL probe keys, a
// one-word filter that passes most misses, a starved budget, an empty
// build — and checks the meter: the filter drops rows, never answers,
// and dropped rows are counted but never sent.
func TestFilteredShuffleMatchesOracle(t *testing.T) {
	defer VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(9))
	genKeys := func(m int, lo, span int64) []tuple.Tuple {
		rows := make([]tuple.Tuple, m)
		for i := range rows {
			k := value.NewInt(lo + rng.Int63n(span))
			if rng.Intn(10) == 0 {
				k = value.Value{}
			}
			rows[i] = tuple.Tuple{k, value.NewInt(int64(i))}
		}
		return rows
	}
	build := genKeys(3000, 0, 4000)
	probe := genKeys(9000, 0, 40_000)
	oracle := NestedLoopJoin(build, probe, 0, 0)
	for _, c := range []struct {
		name    string
		build   []tuple.Tuple
		budget  int64
		wordCap int
	}{
		{"plain", build, 0, 0},
		{"oneword", build, 0, 1},
		{"starved", build, 16 << 10, 0},
		{"empty", nil, 0, 0},
	} {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/nodes=%d", c.name, n), func(t *testing.T) {
				defer SetJoinFilterWordCap(SetJoinFilterWordCap(c.wordCap))
				store := dfs.NewStore(n, 1, 1)
				ex := New(store, &cluster.Meter{})
				if c.budget > 0 {
					ex.Mem = NewMemBudget(c.budget)
					ex.SpillDir = t.TempDir()
				}
				ns := ex.EnableNodes(1)
				_, parts := filteredShuffleJoin(ns, splitSources(c.build, n), splitSources(probe, n))
				got, err := Collect(Gather(parts...))
				if err != nil {
					t.Fatal(err)
				}
				if c.build == nil {
					rowsEqualSorted(t, got, nil)
				} else {
					rowsEqualSorted(t, got, oracle)
				}
				ns.Flush()
				m := ex.Meter.Snapshot()
				moved := m.ExchLocalRows + m.ExchRemoteRows
				if moved+m.ExchFilteredRows != float64(len(c.build)+len(probe)) {
					t.Fatalf("moved %.0f + filtered %.0f rows, want %d in all", moved, m.ExchFilteredRows, len(c.build)+len(probe))
				}
				if m.ExchFilteredRows == 0 {
					t.Fatal("the filter dropped nothing")
				}
				if c.build == nil && moved != 0 {
					t.Fatalf("an empty build let %.0f probe rows cross", moved)
				}
				if used := ex.Mem.Used(); used != 0 {
					t.Fatalf("%d bytes still charged", used)
				}
			})
		}
	}
}

// TestSpillingFilteredShuffleDeterministic drains one budgeted shuffle
// join whose builds demote partitions, on the 2-node simulated fabric,
// three times each at GOMAXPROCS 1 and 8. Which partitions demote, and
// when, depends on how the build workers interleave; the rows and bytes
// the filtered probe exchange moves must not, because each node's
// filter holds every build key, resident or spilled.
func TestSpillingFilteredShuffleDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := func(m int, span int64) []tuple.Tuple {
		out := make([]tuple.Tuple, m)
		for i := range out {
			out[i] = tuple.Tuple{value.NewInt(rng.Int63n(span)), value.NewString(strings.Repeat("x", 8+rng.Intn(24)))}
		}
		return out
	}
	build, probe := rows(3000, 6000), rows(6000, 60_000)
	oracle := NestedLoopJoin(build, probe, 0, 0)
	var first *cluster.Counters
	for _, procs := range []int{1, 8} {
		for run := 0; run < 3; run++ {
			prev := runtime.GOMAXPROCS(procs)
			ex := New(dfs.NewStore(2, 1, 1), &cluster.Meter{})
			ex.Mem = NewMemBudget(64 << 10)
			ex.SpillDir = t.TempDir()
			ns := ex.EnableNodes(4)
			_, parts := filteredShuffleJoin(ns, splitSources(build, 2), splitSources(probe, 2))
			got, err := Collect(Gather(parts...))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			rowsEqualSorted(t, got, oracle)
			demoted := false
			for _, p := range parts {
				demoted = demoted || p.(*hashJoinOp).hasSpilled
			}
			if !demoted {
				t.Fatalf("GOMAXPROCS %d run %d: no partition was demoted", procs, run)
			}
			ns.Flush()
			m := ex.Meter.Snapshot()
			if first == nil {
				first = &m
				continue
			}
			if m.ExchRemoteRows != first.ExchRemoteRows || m.ExchFilteredRows != first.ExchFilteredRows || m.ExchBytes != first.ExchBytes {
				t.Fatalf("GOMAXPROCS %d run %d: remote %.0f rows, filtered %.0f rows, %.0f bytes; the first run read %.0f, %.0f, %.0f",
					procs, run, m.ExchRemoteRows, m.ExchFilteredRows, m.ExchBytes,
					first.ExchRemoteRows, first.ExchFilteredRows, first.ExchBytes)
			}
		}
	}
}

// TestRouteHash pins the one hash route: unfiltered NULL keys go to
// destination 0, filtered ones and filter rejects are dropped, and a
// nil filter passes every non-NULL key.
func TestRouteHash(t *testing.T) {
	rows := []tuple.Tuple{{value.Value{}}, {value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(3)}, {value.Value{}}}
	b := NewSource(rows)
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	batch, err := b.Next()
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Release()
	cb := batch.Cols()
	const n = 2
	dest := func(i int) int { return int(rows[i][0].Hash64() % n) }
	dIdx := make([][]int32, n)
	_, dropped := routeHash(cb, 0, nil, dIdx, nil)
	if dropped != 0 || !slices.Contains(dIdx[0], 0) || !slices.Contains(dIdx[0], 4) {
		t.Fatalf("unfiltered: dropped %d, lists %v; NULL keys belong at 0", dropped, dIdx)
	}
	// Destination dest(2) holds key 2 only; the other passes everything.
	only2 := newKeyFilter([]uint64{rows[2][0].Hash64()})
	filters := make([]*KeyFilter, n)
	filters[dest(2)] = only2
	dIdx = [][]int32{nil, nil}
	_, dropped = routeHash(cb, 0, nil, dIdx, filters)
	var want [n][]int32
	wantDropped := 2 // the NULLs
	for i := 1; i <= 3; i++ {
		d := dest(i)
		if filters[d] != nil && !filters[d].mayPass(rows[i][0].Hash64()) {
			wantDropped++
			continue
		}
		want[d] = append(want[d], int32(i))
	}
	if dropped != wantDropped || !slices.Equal(dIdx[0], want[0]) || !slices.Equal(dIdx[1], want[1]) {
		t.Fatalf("filtered: dropped %d lists %v, want %d %v", dropped, dIdx, wantDropped, want)
	}
	if !slices.Contains(dIdx[dest(2)], 2) {
		t.Fatal("the filter dropped the key it holds")
	}
}

// TestKeyFilterWireRoundTrip: a filter survives its wire form check for
// check, and the decoder refuses malformed input: truncated, with a
// trailing byte, a bad presence byte or a log byte that disagrees with
// the word count.
func TestKeyFilterWireRoundTrip(t *testing.T) {
	var hashes []uint64
	for i := int64(0); i < 500; i++ {
		hashes = append(hashes, value.NewInt(i).Hash64())
	}
	for _, f := range []*KeyFilter{nil, newKeyFilter(hashes), newKeyFilter(hashes[:3]), newKeyFilter()} {
		enc := AppendKeyFilter(nil, f)
		g, err := DecodeKeyFilter(enc)
		if err != nil {
			t.Fatal(err)
		}
		if (f == nil) != (g == nil) {
			t.Fatalf("nil-ness changed: %v -> %v", f, g)
		}
		if f == nil {
			continue
		}
		for i := int64(0); i < 5000; i++ {
			h := value.NewInt(i).Hash64()
			if f.mayPass(h) != g.mayPass(h) {
				t.Fatalf("decoded filter disagrees on key %d", i)
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeKeyFilter(enc[:cut]); err == nil {
				t.Fatalf("decoded a filter truncated to %d of %d bytes", cut, len(enc))
			}
		}
		if _, err := DecodeKeyFilter(append(enc, 0)); err == nil {
			t.Fatal("decoded a filter with a trailing byte")
		}
		corrupt := func(i int, b byte) []byte {
			c := slices.Clone(enc)
			c[i] = b
			return c
		}
		bad := [][]byte{corrupt(0, 2)}
		if f != nil {
			bad = append(bad, corrupt(1, enc[1]+1), corrupt(1, enc[1]-1))
		}
		for _, b := range bad {
			if _, err := DecodeKeyFilter(b); err == nil {
				t.Fatalf("decoded %x", b)
			}
		}
	}
}

// FuzzDecodeKeyFilter: filter frames arrive from peer processes, so the
// decoder takes any input without panicking and accepts only the forms
// AppendKeyFilter writes — every accepted input re-encodes to the same
// bytes — and a filter built from the input, read as key hashes, passes
// each of them after a round trip.
func FuzzDecodeKeyFilter(f *testing.F) {
	f.Add([]byte{0})
	f.Add(AppendKeyFilter(nil, newKeyFilter()))
	f.Add(AppendKeyFilter(nil, newKeyFilter([]uint64{1, 2, 3, 1 << 63})))
	f.Add([]byte{1, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, b []byte) {
		hs := make([]uint64, len(b)/8)
		for i := range hs {
			hs[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		if g, err := DecodeKeyFilter(b); err == nil {
			if enc := AppendKeyFilter(nil, g); !bytes.Equal(enc, b) {
				t.Fatalf("accepted %x, which re-encodes as %x", b, enc)
			}
			if g != nil {
				for _, h := range hs {
					g.mayPass(h)
				}
			}
		}
		g, err := DecodeKeyFilter(AppendKeyFilter(nil, newKeyFilter(hs)))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if !g.mayPass(h) {
				t.Fatalf("a filter over %d hashes rejects %#x after a round trip", len(hs), h)
			}
		}
	})
}

// TestFilteredShuffleLeakWall: a filtered shuffle whose joins never
// all publish a build filter — cancelled mid-build, a build failing
// with ErrBlockMissing, joins closed before their probe opens — still
// releases every producer waiting on filters, returns the budget and
// leaves the spill dir empty.
func TestFilteredShuffleLeakWall(t *testing.T) {
	const n = 4
	build := keyRows(make([]int64, 12000))
	for i := range build {
		build[i][0] = value.NewInt(int64(i % 5000))
	}
	probe := keyRows(make([]int64, 8000))
	// start is cancelExec over an n-node store.
	start := func(t *testing.T) (*Executor, *NodeSet, context.CancelFunc, string) {
		ctx, cancel := context.WithCancel(context.Background())
		ex := New(dfs.NewStore(n, 1, 1), &cluster.Meter{}).ForQuery(QueryCtx{
			Ctx: ctx, Mem: NewMemBudget(1 << 20), SpillDir: t.TempDir(),
		})
		return ex, ex.EnableNodes(1), cancel, ex.SpillDir
	}

	t.Run("cancel-mid-build", func(t *testing.T) {
		ex, ns, cancel, dir := start(t)
		defer cancel()
		bparts := splitSources(build, n)
		bparts[1] = &cancelSource{Source: bparts[1].(*Source), cancel: cancel, after: 1}
		_, parts := filteredShuffleJoin(ns, bparts, splitSources(probe, n))
		_, err := Collect(Gather(parts...))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertTornDown(t, ex, dir)
	})
	t.Run("block-missing", func(t *testing.T) {
		ex, ns, cancel, dir := start(t)
		defer cancel()
		bparts := splitSources(build, n)
		bparts[2] = &failingOp{err: ErrBlockMissing}
		_, parts := filteredShuffleJoin(ns, bparts, splitSources(probe, n))
		_, err := Collect(Gather(parts...))
		if !errors.Is(err, ErrBlockMissing) {
			t.Fatalf("err = %v, want ErrBlockMissing", err)
		}
		assertTornDown(t, ex, dir)
	})
	// closeBeforeProbe opens one node's join, which seals its build and
	// starts the probe producers, which then wait for the other nodes'
	// filters; then every join closes, the others unopened, and publishes
	// its pass-all filter. Concurrently, each join closes on its own
	// goroutine as Gather would; sequentially, one after another on one
	// goroutine, within a deadline.
	closeBeforeProbe := func(t *testing.T, sequential bool) {
		ex, ns, cancel, dir := start(t)
		defer cancel()
		// Build rows for one node only, so opening its join seals without
		// the other joins draining their build outputs.
		one := keyRows([]int64{0})
		for k := int64(1); len(one) < 50; k++ {
			if key := value.NewInt(k); key.Hash64()%n == one[0][0].Hash64()%n {
				one = append(one, tuple.Tuple{key, value.NewInt(k)})
			}
		}
		d := int(one[0][0].Hash64() % n)
		_, parts := filteredShuffleJoin(ns, splitSources(one, n), splitSources(probe, n))
		if err := parts[d].Open(); err != nil {
			t.Fatal(err)
		}
		closeAll := func(ps []Operator) {
			for _, p := range ps {
				if err := p.Close(); err != nil {
					t.Error(err)
				}
			}
		}
		if sequential {
			done := make(chan struct{})
			go func() {
				defer close(done)
				closeAll(parts)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				cancel() // releases the producers, so the closes end too
				<-done
				t.Fatal("closing the joins one after another hung")
			}
		} else {
			var wg sync.WaitGroup
			for _, p := range parts {
				wg.Add(1)
				go func(p Operator) {
					defer wg.Done()
					closeAll([]Operator{p})
				}(p)
			}
			wg.Wait()
		}
		assertTornDown(t, ex, dir)
	}
	t.Run("close-before-probe", func(t *testing.T) { closeBeforeProbe(t, false) })
	t.Run("close-before-probe-sequential", func(t *testing.T) { closeBeforeProbe(t, true) })
}

// BenchmarkKeyFilter times one filter check, for keys the filter holds
// (hit) and keys it does not (miss), over a 100,000-key filter.
func BenchmarkKeyFilter(b *testing.B) {
	const n = 100_000
	hashes := make([]uint64, 2*n)
	for i := range hashes {
		hashes[i] = value.NewInt(int64(i)).Hash64()
	}
	f := newKeyFilter(hashes[:n])
	for _, c := range []struct {
		name string
		keys []uint64
	}{{"hit", hashes[:n]}, {"miss", hashes[n:]}} {
		b.Run(c.name, func(b *testing.B) {
			pass := 0
			for i := 0; i < b.N; i++ {
				if f.mayPass(c.keys[i%n]) {
					pass++
				}
			}
			keyFilterSink = pass
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/check")
		})
	}
}

var keyFilterSink int
