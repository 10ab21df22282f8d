package twophase

import (
	"math/rand"
	"testing"

	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/upfront"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "orderkey", Kind: value.Int},
	schema.Column{Name: "shipdate", Kind: value.Int},
	schema.Column{Name: "quantity", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(100000)),
			value.NewInt(rng.Int63n(2500)),
			value.NewInt(rng.Int63n(50)),
		}
	}
	return rows
}

func TestBuildStructure(t *testing.T) {
	rows := genRows(4096, 1)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 1}.Build(rows)
	if tr.JoinAttr != 0 || tr.JoinLevels != 2 {
		t.Fatalf("join metadata lost: attr=%d levels=%d", tr.JoinAttr, tr.JoinLevels)
	}
	if tr.NumBuckets() != 16 {
		t.Fatalf("buckets = %d, want 16", tr.NumBuckets())
	}
	// The top two levels must split on the join attribute...
	root := tr.Root
	if root.Leaf || root.Attr != 0 {
		t.Fatalf("root must split on join attr, got %+v", root)
	}
	for _, n := range []*tree.Node{root.Left, root.Right} {
		if n.Leaf || n.Attr != 0 {
			t.Fatalf("level-1 node must split on join attr, got %+v", n)
		}
	}
	// ...and level 2 (first selection level) must not.
	for _, n := range []*tree.Node{root.Left.Left, root.Left.Right, root.Right.Left, root.Right.Right} {
		if !n.Leaf && n.Attr == 0 {
			t.Errorf("selection level split on join attr")
		}
	}
}

func TestJoinRangesDisjointAndBalanced(t *testing.T) {
	rows := genRows(8192, 3)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 3, TotalDepth: 3, Seed: 1}.Build(rows)
	if tr.NumBuckets() != 8 {
		t.Fatalf("buckets = %d, want 8", tr.NumBuckets())
	}
	parts := upfront.Partition(tr, rows)
	// Balanced: medians keep buckets within 2x of ideal (§5.1 "medians
	// help avoid this skew").
	want := len(rows) / 8
	for b, blk := range parts {
		if blk.Len() < want/2 || blk.Len() > want*2 {
			t.Errorf("bucket %d has %d rows, want ≈%d", b, blk.Len(), want)
		}
	}
	// Disjoint join ranges: path ranges on the join attribute must not
	// overlap pairwise (this is what makes hyper-join effective).
	pr := tr.PathRange()
	var ranges []predicate.Range
	for _, m := range pr {
		ranges = append(ranges, m[0])
	}
	for i := 0; i < len(ranges); i++ {
		for j := i + 1; j < len(ranges); j++ {
			if ranges[i].Overlaps(ranges[j]) {
				t.Fatalf("join ranges %v and %v overlap", ranges[i], ranges[j])
			}
		}
	}
}

func TestZeroJoinLevelsDegradesToUpfront(t *testing.T) {
	rows := genRows(1024, 4)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 0, TotalDepth: 3, Seed: 1}.Build(rows)
	if tr.NumBuckets() != 8 {
		t.Fatalf("buckets = %d, want 8", tr.NumBuckets())
	}
	if tr.Root.Attr == 0 && !tr.Root.Leaf {
		// With join levels 0, the root may still happen to pick attr 0 only
		// if it were in SelAttrs — which it is not by default.
		t.Errorf("join attribute should not be used with 0 join levels")
	}
}

func TestAllJoinLevels(t *testing.T) {
	rows := genRows(1024, 5)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 5, TotalDepth: 5, Seed: 1}.Build(rows)
	al := tr.AttrLevels()
	if al[1] != 0 || al[2] != 0 {
		t.Errorf("all-join tree should not use selection attrs: %v", al)
	}
	if al[0] == 0 {
		t.Errorf("join attr unused")
	}
}

func TestJoinLevelsClampedToDepth(t *testing.T) {
	rows := genRows(512, 12)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 10, TotalDepth: 3, Seed: 1}.Build(rows)
	if tr.JoinLevels != 3 {
		t.Errorf("JoinLevels = %d, want clamped to 3", tr.JoinLevels)
	}
	if tr.Depth() > 3 {
		t.Errorf("depth = %d exceeds total", tr.Depth())
	}
}

func TestSkewedJoinAttribute(t *testing.T) {
	// 90% of rows share one join value; median splitting must not loop and
	// no rows may be lost.
	rng := rand.New(rand.NewSource(6))
	rows := make([]tuple.Tuple, 2000)
	for i := range rows {
		k := int64(7)
		if rng.Float64() > 0.9 {
			k = rng.Int63n(1000)
		}
		rows[i] = tuple.Tuple{value.NewInt(k), value.NewInt(rng.Int63n(100)), value.NewInt(rng.Int63n(100))}
	}
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 1}.Build(rows)
	parts := upfront.Partition(tr, rows)
	total := 0
	for _, blk := range parts {
		total += blk.Len()
	}
	if total != len(rows) {
		t.Fatalf("lost rows under skew: %d != %d", total, len(rows))
	}
}

func TestConstantJoinAttribute(t *testing.T) {
	// Join attribute has a single value: join levels cannot split, and the
	// tree should still use its depth on selection attributes.
	rng := rand.New(rand.NewSource(8))
	rows := make([]tuple.Tuple, 1000)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(1), value.NewInt(rng.Int63n(100)), value.NewInt(rng.Int63n(100))}
	}
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 1}.Build(rows)
	if tr.NumBuckets() < 8 {
		t.Errorf("buckets = %d; selection levels should absorb unused join depth", tr.NumBuckets())
	}
	if tr.AttrLevels()[0] != 0 {
		t.Errorf("constant join attribute should not appear in tree")
	}
}

func TestRoutingMatchesPartition(t *testing.T) {
	rows := genRows(2048, 7)
	tr := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 2}.Build(rows)
	parts := upfront.Partition(tr, rows)
	for b, blk := range parts {
		for _, r := range blk.Rows() {
			if tr.Route(r) != b {
				t.Fatalf("row routed inconsistently")
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	rows := genRows(512, 8)
	a := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 9}.Build(rows)
	b := Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 4, Seed: 9}.Build(rows)
	if a.String() != b.String() {
		t.Errorf("same seed produced different trees")
	}
}
