package difftest

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"adaptdb/internal/exec"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// -long switches the harness from the seeded quick mode CI runs on
// every push to a time-bounded random soak:
//
//	go test ./internal/exec/difftest -long -soak 60s
var (
	long     = flag.Bool("long", false, "run the randomized differential soak")
	soakTime = flag.Duration("soak", 30*time.Second, "soak duration with -long")
)

// TestQuickCentralized replays a fixed band of seeds through every
// centralized join path. The band is wide enough that generation
// covers every distribution, shape, budget class, and estimate-error
// class (asserted below, so a generator regression cannot silently
// shrink coverage).
func TestQuickCentralized(t *testing.T) {
	seenDist := map[string]bool{}
	seenShape := map[string]bool{}
	budgeted, wrongEst := 0, 0
	for seed := int64(1); seed <= 80; seed++ {
		c := Generate(seed)
		seenDist[c.Dist] = true
		seenShape[c.Shape] = true
		if c.Budget > 0 {
			budgeted++
		}
		if c.EstFactor != 0 && c.EstFactor != 1 {
			wrongEst++
		}
		if err := RunCentralized(c); err != nil {
			t.Error(err)
		}
	}
	for _, d := range Dists {
		if !seenDist[d] {
			t.Errorf("quick band never generated distribution %q", d)
		}
	}
	for _, s := range Shapes {
		if !seenShape[s] {
			t.Errorf("quick band never generated shape %q", s)
		}
	}
	if budgeted < 10 {
		t.Errorf("quick band generated only %d budgeted cases", budgeted)
	}
	if wrongEst < 10 {
		t.Errorf("quick band generated only %d wrong-estimate cases", wrongEst)
	}
}

// TestQuickDistributed replays a narrower seed band through the full
// planner-compiled distributed path at 1, 4, and 8 node executors.
func TestQuickDistributed(t *testing.T) {
	for _, nodes := range []int{1, 4, 8} {
		nodes := nodes
		t.Run(map[int]string{1: "nodes=1", 4: "nodes=4", 8: "nodes=8"}[nodes], func(t *testing.T) {
			for seed := int64(100); seed <= 112; seed++ {
				if err := RunDistributed(Generate(seed), nodes); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestFilteredShuffleCases drives the filtered shuffle through the
// planner-compiled distributed path at 1, 4 and 8 nodes, with
// production-sized filters and with one-word filters that pass most
// rows that cannot match: the quick seed band, plus crafted cases — NULL
// probe keys, an empty build (RunDistributed asserts no row crosses),
// a starved budget that demotes partitions, and Int keys joined to Date
// keys of the same numbers, which never match.
func TestFilteredShuffleCases(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	intSch := schema.MustNew(schema.Column{Name: "k", Kind: value.Int}, schema.Column{Name: "v", Kind: value.Int})
	dateSch := schema.MustNew(schema.Column{Name: "k", Kind: value.Date}, schema.Column{Name: "v", Kind: value.Int})
	rows := func(n int, key func(i int) value.Value) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{key(i), value.NewInt(int64(i))}
		}
		return out
	}
	ints := func(mod int) func(int) value.Value {
		return func(i int) value.Value { return value.NewInt(int64(i % mod)) }
	}
	nullish := func(i int) value.Value {
		if i%3 == 0 {
			return value.Value{}
		}
		return value.NewInt(int64(i % 700))
	}
	crafted := []Case{
		{Dist: "nullprobe", Left: rows(200, ints(300)), Right: rows(900, nullish), LSch: intSch, RSch: intSch},
		{Dist: "emptybuild", Left: nil, Right: rows(900, ints(500)), LSch: intSch, RSch: intSch},
		{Dist: "starved", Left: rows(600, ints(400)), Right: rows(1500, ints(4000)), LSch: intSch, RSch: intSch, Budget: 2048},
		{Dist: "intdate", Left: rows(300, ints(300)), Right: rows(900, func(i int) value.Value { return value.NewDate(int64(i % 300)) }),
			LSch: intSch, RSch: dateSch},
	}
	for _, wordCap := range []int{0, 1} {
		for _, nodes := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("cap=%d/nodes=%d", wordCap, nodes), func(t *testing.T) {
				defer exec.SetJoinFilterWordCap(exec.SetJoinFilterWordCap(wordCap))
				for i, c := range crafted {
					c.Seed = int64(i + 1)
					if err := RunDistributed(c, nodes); err != nil {
						t.Error(err)
					}
				}
				for seed := int64(100); seed <= 112; seed++ {
					if err := RunDistributed(Generate(seed), nodes); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestCraftedEdges pins the distributions the generator draws randomly
// as explicit, always-run cases: NULL-only keys, the all-duplicate
// cross product under a starved budget, empty sides, and single rows.
func TestCraftedEdges(t *testing.T) {
	intRow := func(k value.Value, tag int64) tuple.Tuple {
		return tuple.Tuple{k, value.NewInt(tag)}
	}
	nulls := make([]tuple.Tuple, 50)
	for i := range nulls {
		nulls[i] = intRow(value.Value{}, int64(i))
	}
	dups := make([]tuple.Tuple, 80)
	for i := range dups {
		dups[i] = intRow(value.NewInt(3), int64(i))
	}
	mixed := append(append([]tuple.Tuple{}, nulls[:10]...), dups[:20]...)

	base := Generate(1) // donate its schemas' shape: 2-col int-key case
	for _, tc := range []struct {
		name        string
		left, right []tuple.Tuple
		budget      int64
	}{
		{"all-null-keys", nulls, nulls, 0},
		{"all-null-keys-budgeted", nulls, nulls, 512},
		{"all-duplicate-starved", dups, dups, 256},
		{"null-and-dup-mix", mixed, mixed, 512},
		{"empty-left", nil, dups, 512},
		{"empty-right", dups, nil, 512},
		{"both-empty", nil, nil, 256},
		{"single-rows", dups[:1], dups[:1], 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			c.Left, c.Right = tc.left, tc.right
			c.LCol, c.RCol = 0, 0
			c.Budget = tc.budget
			if err := RunCentralized(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNullKeysProduceNothing is the directed NULL semantics check: a
// NULL-keyed row must not join even with itself, on any path, budgeted
// or not.
func TestNullKeysProduceNothing(t *testing.T) {
	rows := []tuple.Tuple{
		{value.Value{}, value.NewInt(1)},
		{value.Value{}, value.NewInt(2)},
	}
	if got := exec.NestedLoopJoin(rows, rows, 0, 0); len(got) != 0 {
		t.Fatalf("oracle joined NULL keys: %d rows", len(got))
	}
	c := Generate(1)
	c.Left, c.Right, c.LCol, c.RCol, c.Budget = rows, rows, 0, 0, 64
	if err := RunCentralized(c); err != nil {
		t.Error(err)
	}
}

// TestSoak is the -long mode: random seeds stream through both
// harness paths until the clock runs out. Distributed rounds cycle the
// node counts; every failure names its seed for replay.
func TestSoak(t *testing.T) {
	if !*long {
		t.Skip("quick mode; run with -long for the randomized soak")
	}
	deadline := time.Now().Add(*soakTime)
	nodes := []int{1, 4, 8}
	n := 0
	for seed := int64(10_000); time.Now().Before(deadline); seed++ {
		c := Generate(seed)
		if err := RunCentralized(c); err != nil {
			t.Fatal(err)
		}
		if seed%5 == 0 {
			if err := RunDistributed(c, nodes[int(seed/5)%len(nodes)]); err != nil {
				t.Fatal(err)
			}
		}
		if seed%7 == 0 {
			for _, c := range sessionAndServe(nodes[int(seed/7)%len(nodes)]) {
				if _, err := Run(GenSpecCase(seed), c); err != nil {
					t.Fatal(err)
				}
			}
		}
		n++
	}
	t.Logf("soak: %d cases clean", n)
}

// FuzzJoinDifferential lets go fuzz drive the seed space; the corpus
// seeds are the quick band's first few values, so plain `go test` also
// replays them.
func FuzzJoinDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunCentralized(Generate(seed)); err != nil {
			t.Error(err)
		}
	})
}
