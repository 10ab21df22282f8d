// Quickstart: create tables, run predicate scans and joins, and watch
// AdaptDB adapt its partitioning to the workload — all through the
// public API.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"adaptdb"
)

func main() {
	db := adaptdb.Open(adaptdb.Options{
		Nodes:        10,
		RowsPerBlock: 256,
		Seed:         1,
	})

	// Load two tables with the upfront partitioner (no workload
	// knowledge yet).
	rng := rand.New(rand.NewSource(1))
	var users []adaptdb.Row
	for i := 0; i < 5000; i++ {
		users = append(users, adaptdb.Row{
			adaptdb.Int(int64(i)),
			adaptdb.Int(rng.Int63n(80)),
			adaptdb.String([]string{"us", "uk", "de", "fr"}[rng.Intn(4)]),
		})
	}
	var orders []adaptdb.Row
	for i := 0; i < 20000; i++ {
		orders = append(orders, adaptdb.Row{
			adaptdb.Int(int64(i)),
			adaptdb.Int(rng.Int63n(5000)),
			adaptdb.Float(rng.Float64() * 500),
		})
	}
	must(db.CreateTable("users", adaptdb.NewSchema(
		adaptdb.Col("id", adaptdb.KindInt),
		adaptdb.Col("age", adaptdb.KindInt),
		adaptdb.Col("country", adaptdb.KindString),
	), users))
	must(db.CreateTable("orders", adaptdb.NewSchema(
		adaptdb.Col("oid", adaptdb.KindInt),
		adaptdb.Col("uid", adaptdb.KindInt),
		adaptdb.Col("amount", adaptdb.KindFloat),
	), orders))

	// A predicate scan: the partitioning tree plus zone maps skip blocks
	// that cannot match.
	res, err := db.Query("users").
		Where("age", adaptdb.GE, adaptdb.Int(65)).
		Where("country", adaptdb.EQ, adaptdb.String("de")).
		Run()
	check(err)
	fmt.Printf("seniors in de: %d rows, %d blocks read, %.2f sim-seconds\n",
		len(res.Rows), res.Stats.BlocksScanned, res.Stats.SimSeconds)

	// Run the same join repeatedly: the first executions shuffle, and as
	// the query window fills, smooth repartitioning migrates both tables
	// onto the join attribute until the planner switches to hyper-join.
	fmt.Println("\nrunning orders ⋈ users twelve times:")
	for i := 0; i < 12; i++ {
		res, err := db.Query("orders").
			Join("users", "uid", "id").
			Where("age", adaptdb.LT, adaptdb.Int(30)).
			Run()
		check(err)
		fmt.Printf("  query %2d: %-12s %6d rows  %7.2f sim-s  (moved %d rows this query)\n",
			i, res.Stats.Strategies[0], len(res.Rows), res.Stats.SimSeconds,
			res.Stats.RepartitionedRows)
	}

	// A grouped aggregate over the join: per country, for users in three
	// of the four countries, the number of orders and their total,
	// smallest, largest and mean amount. Every group is checked against
	// the loaded rows.
	res, err = db.Query("orders").
		Join("users", "uid", "id").
		WhereIn("country", adaptdb.String("us"), adaptdb.String("uk"), adaptdb.String("de")).
		GroupBy("country").
		Count().Sum("amount").Min("amount").Max("amount").Avg("amount").
		Run()
	check(err)
	type group struct {
		n           int64
		sum, lo, hi float64
	}
	want := map[string]*group{}
	for _, o := range orders {
		country, amount := users[o[1].Int64()][2].String(), o[2].Float64()
		if country == "fr" {
			continue
		}
		g := want[country]
		if g == nil {
			g = &group{lo: amount, hi: amount}
			want[country] = g
		}
		g.n++
		g.sum += amount
		g.lo, g.hi = min(g.lo, amount), max(g.hi, amount)
	}
	if len(res.Rows) != len(want) {
		panic(fmt.Sprintf("grouped query returned %d groups, want %d", len(res.Rows), len(want)))
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0].String() < res.Rows[j][0].String() })
	fmt.Println("\norders per country:")
	for _, r := range res.Rows {
		g := want[r[0].String()]
		if g == nil || r[1].Int64() != g.n || !near(r[2].Float64(), g.sum) || r[3].Float64() != g.lo ||
			r[4].Float64() != g.hi || !near(r[5].Float64(), g.sum/float64(g.n)) {
			panic(fmt.Sprintf("group %v disagrees with the loaded rows", r))
		}
		fmt.Printf("  %s: %5d orders, total %10.2f, min %6.2f, max %6.2f, mean %6.2f\n",
			r[0], r[1].Int64(), r[2].Float64(), r[3].Float64(), r[4].Float64(), r[5].Float64())
	}

	for _, name := range []string{"users", "orders"} {
		st := db.Table(name).Stats()
		fmt.Printf("\n%s: %d rows in %d blocks across %d tree(s), join attrs %v\n",
			name, st.Rows, st.Blocks, st.Trees, st.JoinAttrs)
	}
	fmt.Printf("\ncumulative simulated time: %.2f seconds\n", db.TotalSimSeconds())
}

func must(t *adaptdb.Table, err error) *adaptdb.Table {
	check(err)
	return t
}

// near reports whether two sums agree up to rounding: the engine adds
// the amounts in another order than the check does.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
