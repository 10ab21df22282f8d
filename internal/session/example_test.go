package session_test

import (
	"fmt"
	"math/rand"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/schema"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// ExampleSession replays a tiny query stream whose join attribute
// shifts from column a to column b. The session records each query in
// the fact table's window, and smooth repartitioning migrates blocks
// between queries: the first b-join still shuffles, then a b-tree is
// created and the planner switches to hyper-join as data migrates.
func ExampleSession() {
	factSch := schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
	)
	dimSch := schema.MustNew(
		schema.Column{Name: "key", Kind: value.Int},
	)
	store := dfs.NewStore(4, 2, 1)
	rng := rand.New(rand.NewSource(2))
	var frows, dimrows []tuple.Tuple
	for i := 0; i < 2048; i++ {
		frows = append(frows, tuple.Tuple{
			value.NewInt(rng.Int63n(100)), value.NewInt(rng.Int63n(100)),
		})
	}
	for i := int64(0); i < 100; i++ {
		dimrows = append(dimrows, tuple.Tuple{value.NewInt(i)})
	}
	fact, _ := core.Load(store, "fact", factSch, frows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 3, JoinAttr: 0, // co-partitioned on a
	})
	dim, _ := core.Load(store, "dim", dimSch, dimrows, core.LoadOptions{
		RowsPerBlock: 32, Seed: 4, JoinAttr: 0,
	})

	s := session.New(store, session.Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 4, Seed: 7},
	})
	for i, attr := range []int{0, 1, 1, 1, 1} {
		q := session.Query{
			Label: fmt.Sprintf("q%d", i),
			Plan: &planner.Join{
				Left:  &planner.Scan{Table: fact},
				Right: &planner.Scan{Table: dim},
				LCol:  attr, RCol: 0,
			},
		}
		res, err := s.Execute(q)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s join=%-12s rows=%d moved=%d\n",
			res.Label, res.Report.Joins[0].Strategy, res.RowCount, res.Adapt.MovedRows)
	}
	// Output:
	// q0 join=hyper        rows=2048 moved=0
	// q1 join=combination  rows=2048 moved=507
	// q2 join=combination  rows=2048 moved=543
	// q3 join=combination  rows=2048 moved=498
	// q4 join=hyper        rows=2048 moved=500
}
