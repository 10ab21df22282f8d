package core_test

import (
	"testing"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/tpch"
	"adaptdb/internal/twophase"
	"adaptdb/internal/upfront"
)

// BenchmarkMoveBucketsLineitem is BenchmarkMoveBuckets on the rows smooth
// repartitioning moves: TPC-H lineitem at sf 0.01 (15 columns, ~60k
// rows), loaded upfront with 256 rows per block, drained into a
// two-phase partkey tree in five moves of a fifth of its buckets each.
// Loading and building the tree are untimed; it reports ns per moved
// row.
func BenchmarkMoveBucketsLineitem(b *testing.B) {
	rows := tpch.Generate(0.01, 1).Lineitem
	sch := tpch.LineitemSchema
	depth := upfront.DepthForBlocks(len(rows), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, err := core.Load(dfs.NewStore(4, 2, 1), "lineitem", sch, rows, core.LoadOptions{RowsPerBlock: 256, Seed: 1, JoinAttr: -1})
		if err != nil {
			b.Fatal(err)
		}
		idx := tbl.AddTree(twophase.Builder{Schema: sch, JoinAttr: tpch.LPartKey, JoinLevels: depth / 2, TotalDepth: depth, Seed: 6}.Build(tbl.SampleRows))
		live := tbl.Trees[0].LiveBuckets()
		step := (len(live) + 4) / 5
		b.StartTimer()
		for len(live) > 0 {
			n := min(step, len(live))
			if err := tbl.MoveBuckets(0, idx, live[:n], nil); err != nil {
				b.Fatal(err)
			}
			live = live[n:]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
}
