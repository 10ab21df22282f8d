package optimizer

import (
	"math/rand"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "orderkey", Kind: value.Int},
	schema.Column{Name: "partkey", Kind: value.Int},
	schema.Column{Name: "shipdate", Kind: value.Int},
)

func loadTable(t *testing.T) *core.Table {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	rng := rand.New(rand.NewSource(1))
	rows := make([]tuple.Tuple, 2048)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(10000)),
			value.NewInt(rng.Int63n(2000)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	tbl, err := core.Load(store, "lineitem", sch, rows, core.LoadOptions{
		RowsPerBlock: 128, Seed: 1, JoinAttr: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestStaticModeNeverAdapts(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeStatic, WindowSize: 10})
	var meter cluster.Meter
	for i := 0; i < 10; i++ {
		rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &meter)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MovedRows != 0 || rep.CreatedTrees != 0 {
			t.Fatalf("static mode adapted: %+v", rep)
		}
	}
	if len(tbl.LiveTrees()) != 1 {
		t.Errorf("static mode grew trees")
	}
	if meter.Snapshot().RepartRows != 0 {
		t.Errorf("static mode metered repartitioning")
	}
}

func TestAdaptiveModeShiftsSmoothly(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeAdaptive, WindowSize: 10, Seed: 3})
	var perQuery []int
	for i := 0; i < 12; i++ {
		var meter cluster.Meter
		rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &meter)
		if err != nil {
			t.Fatal(err)
		}
		perQuery = append(perQuery, rep.MovedRows)
	}
	if live := tbl.LiveTrees(); len(live) != 1 || tbl.TreeFor(1) < 0 {
		t.Fatalf("adaptive mode should converge to partkey tree; trees=%v", tbl.LiveTrees())
	}
	// Smoothness: no single query moves more than ~35% of the table.
	for i, m := range perQuery {
		if m > 2048*35/100 {
			t.Errorf("query %d moved %d rows — not smooth", i, m)
		}
	}
}

// TestOnQueryReportsFailedStepPartialWork: a smooth step whose
// migration fails has already created its tree, and the report returned
// with the error says so.
func TestOnQueryReportsFailedStepPartialWork(t *testing.T) {
	tbl := loadTable(t)
	// Every tree-0 block is gone, so whichever bucket the step picks,
	// its read fails.
	for _, b := range tbl.Trees[0].LiveBuckets() {
		tbl.Store().Delete(tbl.BlockPath(0, b))
	}
	o := New(Config{Mode: ModeAdaptive, WindowSize: 10})
	rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &cluster.Meter{})
	if err == nil {
		t.Fatal("migration over deleted blocks succeeded")
	}
	if rep.CreatedTrees != 1 || !rep.Adapted() {
		t.Fatalf("failed step's report %+v, want the created tree counted", rep)
	}
	if len(tbl.LiveTrees()) != 2 {
		t.Fatalf("live trees %v, want the old and the new", tbl.LiveTrees())
	}
}

func TestFullRepartitionModeSpikes(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeFullRepartition, WindowSize: 10, Seed: 4})
	spike := -1
	for i := 0; i < 10; i++ {
		var meter cluster.Meter
		rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &meter)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FullRepartitions > 0 {
			spike = i
			if rep.MovedRows != 2048 {
				t.Errorf("full repartition moved %d rows, want all 2048", rep.MovedRows)
			}
			break
		}
	}
	// Half the window (5 of 10) must carry the new attribute first.
	if spike != 4 {
		t.Errorf("full repartition at query %d, want 4 (half-window rule)", spike)
	}
	if tbl.TreeFor(1) < 0 {
		t.Errorf("table not repartitioned onto partkey")
	}
	// Subsequent queries are quiet.
	var meter cluster.Meter
	rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRepartitions != 0 || rep.MovedRows != 0 {
		t.Errorf("repeat full repartition: %+v", rep)
	}
}

func TestFMinGate(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeAdaptive, WindowSize: 10, FMin: 3, Seed: 5})
	created := 0
	for i := 0; i < 3; i++ {
		var meter cluster.Meter
		rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 1}}, &meter)
		if err != nil {
			t.Fatal(err)
		}
		created += rep.CreatedTrees
		if i < 2 && created > 0 {
			t.Fatalf("tree created before fmin=3 queries (query %d)", i)
		}
	}
	if created != 1 {
		t.Errorf("tree should be created exactly once at fmin; got %d", created)
	}
}

func TestAmoebaEnabled(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeAdaptive, WindowSize: 10, EnableAmoeba: true, Seed: 6})
	preds := []predicate.Predicate{predicate.NewCmp(2, predicate.LT, value.NewInt(300))}
	transforms := 0
	for i := 0; i < 15; i++ {
		var meter cluster.Meter
		rep, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 0, Preds: preds}}, &meter)
		if err != nil {
			t.Fatal(err)
		}
		transforms += rep.AmoebaTransforms
	}
	if transforms == 0 {
		t.Errorf("amoeba adaptation never fired under steady selection pressure")
	}
}

func TestWindowSharedAcrossModes(t *testing.T) {
	tbl := loadTable(t)
	o := New(Config{Mode: ModeAdaptive, WindowSize: 5})
	var meter cluster.Meter
	for i := 0; i < 7; i++ {
		if _, err := o.OnQuery([]TableUse{{Table: tbl, JoinAttr: 0}}, &meter); err != nil {
			t.Fatal(err)
		}
	}
	if o.Window("lineitem").Len() != 5 {
		t.Errorf("window should cap at 5: %d", o.Window("lineitem").Len())
	}
}

func TestDefaults(t *testing.T) {
	o := New(Config{})
	if o.cfg.WindowSize != 10 || o.cfg.FMin != 1 {
		t.Errorf("defaults wrong: %+v", o.cfg)
	}
}
