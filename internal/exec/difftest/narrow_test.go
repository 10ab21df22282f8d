package difftest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// narrowDataset rebuilds the narrowCases in TCP worker processes; a
// case's Seed is narrowSeed plus its index.
const (
	narrowDataset = "difftest-narrow"
	narrowSeed    = 900
)

func registerNarrowDataset() {
	adbnet.RegisterDataset(narrowDataset, func(raw json.RawMessage) (*dfs.Store, query.Catalog, error) {
		var p SpecDatasetParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, nil, fmt.Errorf("difftest: decode narrow params: %w", err)
		}
		return loadSpecTables(narrowCases()[p.Seed-narrowSeed], p.Nodes)
	})
}

// narrowTable is an all-Int table whose NULLs and small key range make
// joins hit, group and skip NULL keys.
func narrowTable(rng *rand.Rand, name string, ncols, n int, keyRange int64) SpecTable {
	cols := make([]schema.Column, ncols)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("%s_c%d", name, i), Kind: value.Int}
	}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		r := make(tuple.Tuple, ncols)
		for c := range r {
			if rng.Intn(20) == 0 {
				r[c] = value.Value{}
			} else {
				r[c] = value.NewInt(rng.Int63n(keyRange))
			}
		}
		rows[i] = r
	}
	return SpecTable{Name: name, Sch: schema.MustNew(cols...), Rows: rows}
}

// narrowCases are the grouped shapes whose scans keep the fewest
// columns:
//   - a one-table COUNT(*), which reads no column (its scan keeps
//     column 0, so no stream is zero columns wide);
//   - a global aggregate over joins in which dim and dim2 contribute
//     only their join keys;
//   - a grouped join whose group-by column is also a join key.
//
// The joins' second is an intermediate against dim2, which has no tree
// on its key, so it shuffles and, under a starved budget, spills.
func narrowCases() []SpecCase {
	rng := rand.New(rand.NewSource(narrowSeed))
	fact := narrowTable(rng, "fact", 4, 900, 60)
	dim := narrowTable(rng, "dim", 3, 120, 60)
	dim2 := narrowTable(rng, "dim2", 2, 150, 60)
	joins := []query.JoinEdge{
		query.On(query.C("fact", "fact_c1"), query.C("dim", "dim_c0")),
		query.On(query.C("fact", "fact_c2"), query.C("dim2", "dim2_c0")),
	}
	joined := []query.TableRef{{Name: "fact"}, {Name: "dim"}, {Name: "dim2"}}
	specs := []query.Spec{
		{
			Label:  "count-star",
			Tables: []query.TableRef{{Name: "fact"}},
			Aggs:   []query.Agg{query.Count()},
		},
		{
			Label:  "key-only-sides",
			Tables: joined,
			Joins:  joins,
			Aggs:   []query.Agg{query.Count(), query.Sum(query.C("fact", "fact_c3"))},
		},
		{
			Label:   "group-by-key",
			Tables:  joined,
			Joins:   joins,
			GroupBy: []query.Col{query.C("dim", "dim_c0")},
			Aggs:    []query.Agg{query.Count(), query.Sum(query.C("fact", "fact_c3")), query.Max(query.C("fact", "fact_c1"))},
		},
	}
	out := make([]SpecCase, len(specs))
	for i, s := range specs {
		tables := []SpecTable{fact}
		if len(s.Tables) > 1 {
			tables = append(tables, dim, dim2)
		}
		out[i] = SpecCase{Seed: narrowSeed + int64(i), Tables: tables, Spec: s}
	}
	return out
}

// TestSpecNarrowEdges runs the narrowCases on one node, on the
// simulated 4-node fabric (through session and serve) and over TCP at
// 4 fragments, unbudgeted and under a starved budget that spills,
// against the reference evaluation. The reference itself is pinned:
// its row count and the COUNT(*) its groups sum to.
func TestSpecNarrowEdges(t *testing.T) {
	defer exec.VerifyNoLeaks(t)
	want := map[string][2]int64{"count-star": {1, 900}, "key-only-sides": {1, 3637}, "group-by-key": {53, 3637}}
	spilled := 0.0
	for _, c := range narrowCases() {
		_, cat, err := loadSpecTables(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Spec.Bind(cat)
		if err != nil {
			t.Fatal(err)
		}
		ref := RefSpec(c, b)
		count := int64(0)
		for _, r := range ref {
			count += r[len(b.GroupBy)].I
		}
		if got := [2]int64{int64(len(ref)), count}; got != want[c.Spec.Label] {
			t.Fatalf("%s: reference has %d rows counting %d, want %v", c.Spec.Label, got[0], got[1], want[c.Spec.Label])
		}
		for _, budget := range []int64{0, 4096} {
			c.Budget = budget
			for _, nodes := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/budget=%d/nodes=%d", c.Spec.Label, budget, nodes), func(t *testing.T) {
					if err := RunSpecCase(c, nodes); err != nil {
						t.Fatal(err)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/budget=%d/tcp", c.Spec.Label, budget), func(t *testing.T) {
				cnt, err := RunSpecCaseTCP(c, narrowDataset, 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				spilled += cnt.SpillRows
			})
		}
	}
	if spilled == 0 {
		t.Fatal("no starved run spilled a row")
	}
}
