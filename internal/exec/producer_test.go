package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// producerRows are n rows (key, id, payload): every 7th key NULL, the
// rest from a small domain, payloads of varying length so wire bytes
// depend on which rows cross.
func producerRows(n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		k := value.NewInt(int64(i*31) % 500)
		if i%7 == 3 {
			k = value.Value{}
		}
		rows[i] = tuple.Tuple{k, value.NewInt(int64(i)), value.NewString(fmt.Sprint("p", i%13, "-", i))}
	}
	return rows
}

// batchInput emits rows as batches of 700 rows, every other one
// narrowed to a selection of its even rows, then fails with err (nil
// ends the stream). It records what it emitted and whether it failed
// or was closed.
type batchInput struct {
	rows   []tuple.Tuple
	err    error
	next   int
	out    []*Batch
	live   []int // ids of the emitted live rows, in order
	failed bool
	closed bool
}

func (in *batchInput) Open() error { return nil }

func (in *batchInput) Next() (*Batch, error) {
	if in.next >= len(in.rows) {
		in.failed = in.err != nil
		return nil, in.err
	}
	hi := min(in.next+700, len(in.rows))
	b := NewColBatch(3)
	b.AppendColRows(in.rows[in.next:hi])
	var keep []int32
	for i := 0; i < hi-in.next; i++ {
		if len(in.out)%2 == 0 || i%2 == 0 {
			keep = append(keep, int32(i))
			in.live = append(in.live, in.next+i)
		}
	}
	b.KeepRows(keep)
	in.next = hi
	in.out = append(in.out, b)
	return b, nil
}

func (in *batchInput) Close() error { in.closed = true; return nil }

// delivery is one batch a fake transport received.
type delivery struct {
	d    int
	ids  []int
	full bool
	own  bool // the input's batch itself, handed on
}

// TestProducerRoutes drives the exchange producer over a fake transport
// for every route — hash with and without filters (NULL keys, rejected
// keys), broadcast, deal and a one-destination deal — from a node (src
// 0) and from a coordinator stream (src -1). Each destination must
// receive exactly its rows in input order; every packed batch but a
// destination's last is full; only a hash route's own rows travel in
// the input batch itself; the meter sees every delivered row once, as
// remote with its wire bytes exactly when it left its node, plus the
// dropped rows; a nil meter changes nothing delivered.
func TestProducerRoutes(t *testing.T) {
	rows := producerRows(5000)
	const n = 4
	// Destination 1 holds only keys below 100; destination 2 holds none;
	// destinations 0 and 3 pass every key.
	var under100 []uint64
	for k := int64(0); k < 100; k++ {
		under100 = append(under100, value.NewInt(k).Hash64())
	}
	filters := []*KeyFilter{nil, newKeyFilter(under100), newKeyFilter(), nil}

	for _, c := range []struct {
		name    string
		route   int
		n       int
		filters []*KeyFilter
	}{
		{"hash", 0, n, nil},
		{"hash-filtered", 0, n, filters},
		{"broadcast", RouteBroadcast, n, nil},
		{"deal", RouteDeal, n, nil},
		{"one-destination", RouteDeal, 1, nil},
	} {
		for _, src := range []int{-1, 0} {
			for _, metered := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/src=%d/metered=%v", c.name, src, metered), func(t *testing.T) {
					in := &batchInput{rows: rows}
					var got []delivery
					p := &Producer{In: in, Src: src, N: c.n, Route: c.route,
						Stop: func() error { return nil },
						Deliver: func(d int, b *Batch) error {
							dv := delivery{d: d, full: b.Full(), own: slices.Contains(in.out, b)}
							for _, r := range b.Rows() {
								dv.ids = append(dv.ids, int(r[1].I))
							}
							got = append(got, dv)
							b.Release()
							return nil
						}}
					var m *cluster.Meter
					if metered {
						m = &cluster.Meter{}
						p.Meter = m
					}
					if c.filters != nil {
						p.Filters = func() ([]*KeyFilter, error) { return c.filters, nil }
					}
					if err := p.Run(); err != nil {
						t.Fatal(err)
					}
					if !in.closed {
						t.Fatal("input not closed")
					}

					// Where each live row must go, in input order.
					want := make([][]int, c.n)
					dropped := 0
					batchOf := func(id int) int { return id / 700 }
					for _, id := range in.live {
						k := rows[id][0]
						switch {
						case c.route == RouteBroadcast:
							for d := range want {
								want[d] = append(want[d], id)
							}
						case c.route == RouteDeal:
							want[batchOf(id)%c.n] = append(want[batchOf(id)%c.n], id)
						case k.IsNull():
							if c.filters != nil {
								dropped++
							} else {
								want[0] = append(want[0], id)
							}
						default:
							d := int(k.Hash64() % uint64(c.n))
							if f := c.filters; f != nil && f[d] != nil && !f[d].mayPass(k.Hash64()) {
								dropped++
								continue
							}
							want[d] = append(want[d], id)
						}
					}
					if c.filters != nil && (dropped == 0 || len(want[1]) == 0 || len(want[2]) != 0) {
						t.Fatalf("the filters drop %d rows and keep %d at 1, %d at 2: the case tests nothing", dropped, len(want[1]), len(want[2]))
					}

					gotIDs := make([][]int, c.n)
					lastPacked := make([]int, c.n) // index in got of d's last packed batch
					for i := range lastPacked {
						lastPacked[i] = -1
					}
					var local, remote, bytes int
					for i, dv := range got {
						gotIDs[dv.d] = append(gotIDs[dv.d], dv.ids...)
						ownOK := c.route >= 0 && dv.d == src
						if dv.own != ownOK {
							t.Fatalf("delivery %d to %d: input batch handed on = %v, want %v", i, dv.d, dv.own, ownOK)
						}
						if !dv.own {
							if j := lastPacked[dv.d]; j >= 0 && !got[j].full {
								t.Fatalf("destination %d got a packed batch of %d rows before its last", dv.d, len(got[j].ids))
							}
							lastPacked[dv.d] = i
						}
						if src != dv.d && c.n > 1 {
							remote += len(dv.ids)
							for _, id := range dv.ids {
								bytes += 3*16 + len(rows[id][2].S)
							}
						} else {
							local += len(dv.ids)
						}
					}
					for d := range want {
						if !slices.Equal(gotIDs[d], want[d]) {
							t.Fatalf("destination %d got %d rows, want %d (or out of order)", d, len(gotIDs[d]), len(want[d]))
						}
					}
					if m == nil {
						return
					}
					cnt := m.Snapshot()
					if cnt.ExchLocalRows != float64(local) || cnt.ExchRemoteRows != float64(remote) ||
						cnt.ExchBytes != float64(bytes) || cnt.ExchFilteredRows != float64(dropped) {
						t.Fatalf("metered local %.0f remote %.0f bytes %.0f dropped %.0f; want %d %d %d %d",
							cnt.ExchLocalRows, cnt.ExchRemoteRows, cnt.ExchBytes, cnt.ExchFilteredRows, local, remote, bytes, dropped)
					}
				})
			}
		}
	}
}

// TestProducerStopsAtError: an input error, a stop and a failed
// delivery each end the run with that error; nothing is delivered
// after it, the pending batches go back to the pool, and the input is
// closed.
func TestProducerStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name string
		// stopAt fails Stop before the input's batch of that index;
		// deliverAt fails that delivery (-1: never).
		inputErr  error
		stopAt    int
		deliverAt int
	}{
		{"input-error", boom, -1, -1},
		{"stop", nil, 4, -1},
		{"deliver-error", nil, -1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one sync.Pool shard
			in := &batchInput{rows: producerRows(3500), err: c.inputErr}
			var p *Producer
			var pending []*Batch // what p had pending when the error came
			snapshot := func() {
				pending = slices.DeleteFunc(slices.Clone(p.pend), func(b *Batch) bool { return b == nil })
			}
			var delivered int
			ended := false
			p = &Producer{In: in, Src: 0, N: 4, Route: 0, Meter: &cluster.Meter{},
				Stop: func() error {
					snapshot()
					if len(in.out) == c.stopAt {
						ended = true
						return boom
					}
					return nil
				},
				Deliver: func(d int, b *Batch) error {
					if ended || in.failed {
						t.Errorf("delivery to %d after the error", d)
					}
					b.Release()
					if delivered++; delivered == c.deliverAt {
						snapshot()
						ended = true
						return boom
					}
					return nil
				}}
			if err := p.Run(); !errors.Is(err, boom) {
				t.Fatalf("Run = %v, want %v", err, boom)
			}
			if !in.closed {
				t.Fatal("input not closed")
			}
			if len(pending) == 0 {
				t.Fatal("no batch was pending at the error: the case tests nothing")
			}
			if raceEnabled {
				return // the race detector's sync.Pool drops Puts at random
			}
			// The released batches are the pool's last Puts on this P, so
			// they come back first (after its private slot).
			var again []*Batch
			for range len(pending) + 1 {
				again = append(again, NewColBatch(3))
			}
			for _, b := range pending {
				if !slices.Contains(again, b) {
					t.Error("a pending batch was not released")
				}
			}
			for _, b := range again {
				b.Release()
			}
		})
	}
}
