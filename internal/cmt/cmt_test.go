package cmt

import (
	"reflect"
	"testing"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func TestGenerateShape(t *testing.T) {
	d := Generate(500, 1)
	if len(d.Trips) != 500 {
		t.Fatalf("trips = %d", len(d.Trips))
	}
	if len(d.Latest) != 500 {
		t.Fatalf("latest = %d, want one per trip", len(d.Latest))
	}
	ratio := float64(len(d.History)) / float64(len(d.Trips))
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("history per trip = %.2f, want ≈2.5", ratio)
	}
	// Column widths per §7.6: 115 fact columns, 33 dimension columns.
	if TripsSchema.NumCols() != 115 {
		t.Errorf("trips schema has %d cols, want 115", TripsSchema.NumCols())
	}
	if HistorySchema.NumCols()+LatestSchema.NumCols() != 33 {
		t.Errorf("dimension columns = %d, want 33",
			HistorySchema.NumCols()+LatestSchema.NumCols())
	}
	for _, r := range d.Trips[:10] {
		if err := r.Conforms(TripsSchema); err != nil {
			t.Fatalf("trip row: %v", err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 9)
	b := Generate(100, 9)
	if len(a.History) != len(b.History) {
		t.Fatalf("history sizes differ")
	}
	for i := range a.Trips {
		for c := range a.Trips[i] {
			if value.Compare(a.Trips[i][c], b.Trips[i][c]) != 0 {
				t.Fatalf("trip %d differs", i)
			}
		}
	}
}

func TestTraceShape(t *testing.T) {
	d := Generate(500, 1)
	tr := Trace(d, 2)
	if len(tr) != TraceLen {
		t.Fatalf("trace length %d, want %d", len(tr), TraceLen)
	}
	counts := map[Kind]int{}
	for i, q := range tr {
		counts[q.Kind]++
		if q.Seq != i {
			t.Errorf("seq %d != %d", q.Seq, i)
		}
		if q.Kind == KindBigScan && (i < 30 || i >= 50) {
			t.Errorf("big scan outside the 30–50 batch at %d", i)
		}
	}
	if counts[KindHistoryJoin] < 40 {
		t.Errorf("history joins should dominate: %v", counts)
	}
	if counts[KindBigScan] == 0 {
		t.Errorf("trace must include the large-fetch batch")
	}
	if counts[KindLatestJoin] == 0 || counts[KindLookup] == 0 {
		t.Errorf("trace missing minor kinds: %v", counts)
	}
}

func TestTraceDeterministic(t *testing.T) {
	d := Generate(300, 1)
	a := Trace(d, 7)
	b := Trace(d, 7)
	for i := range a {
		if a[i].Kind != b[i].Kind {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
}

func filterRows(rows []tuple.Tuple, preds []predicate.Predicate) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

func TestTraceQueriesMatchOracle(t *testing.T) {
	d := Generate(400, 3)
	store := dfs.NewStore(4, 2, 1)
	tb, err := LoadAll(store, d, LoadConfig{RowsPerBlock: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	meter := &cluster.Meter{}
	runner := planner.NewRunner(exec.New(store, meter), cluster.Default())
	for _, q := range Trace(d, 4)[:25] {
		comp, err := runner.Compile(q.Plan(tb))
		if err != nil {
			t.Fatalf("q%d: %v", q.Seq, err)
		}
		rows, err := exec.Collect(comp.Root)
		if err != nil {
			t.Fatalf("q%d: %v", q.Seq, err)
		}
		tf := filterRows(d.Trips, q.TripPreds)
		var want int
		switch q.Kind {
		case KindLookup:
			want = len(tf)
		case KindLatestJoin:
			want = len(exec.NestedLoopJoin(tf, d.Latest, TTripID, LTripID))
		default:
			want = len(exec.NestedLoopJoin(tf, d.History, TTripID, HTripID))
		}
		if len(rows) != want {
			t.Errorf("q%d (%s): %d rows, oracle %d", q.Seq, q.Kind, len(rows), want)
		}
	}
}

// TestUsesJoinAttrs pins the votes planner.Uses derives from every
// trace query kind's plan: trips votes trip_id when it joins, and only
// trips carries predicates — the Scan's own slice.
func TestUsesJoinAttrs(t *testing.T) {
	d := Generate(200, 3)
	store := dfs.NewStore(2, 1, 1)
	tb, err := LoadAll(store, d, LoadConfig{RowsPerBlock: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type vote struct {
		table string
		attr  int
	}
	want := map[Kind][]vote{
		KindLookup:      {{"trips", -1}},
		KindHistoryJoin: {{"trips", TTripID}, {"history", HTripID}},
		KindLatestJoin:  {{"trips", TTripID}, {"latest", LTripID}},
		KindBigScan:     {{"trips", TTripID}, {"history", HTripID}},
	}
	seen := map[Kind]bool{}
	for _, q := range Trace(d, 4) {
		seen[q.Kind] = true
		uses := planner.Uses(q.Plan(tb))
		var got []vote
		for _, u := range uses {
			got = append(got, vote{u.Table.Name, u.JoinAttr})
		}
		if !reflect.DeepEqual(got, want[q.Kind]) {
			t.Fatalf("q%d (%s): votes %v, want %v", q.Seq, q.Kind, got, want[q.Kind])
		}
		if &uses[0].Preds[0] != &q.TripPreds[0] {
			t.Fatalf("q%d: trips votes a copy of its predicates, not the Scan's slice", q.Seq)
		}
		for _, u := range uses[1:] {
			if u.Preds != nil {
				t.Fatalf("q%d: %s votes predicates %v, want none", q.Seq, u.Table.Name, u.Preds)
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("trace covers kinds %v, want all of %d", seen, len(want))
	}
}

func TestBestGuessLayoutLoads(t *testing.T) {
	d := Generate(300, 3)
	store := dfs.NewStore(4, 2, 1)
	join, attrs := BestGuessAttrs()
	tb, err := LoadAll(store, d, LoadConfig{RowsPerBlock: 128, JoinAttrs: join, Attrs: attrs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Trips.TreeFor(TTripID) < 0 {
		t.Errorf("best-guess trips should be keyed on trip_id")
	}
	if tb.History.TreeFor(HTripID) < 0 {
		t.Errorf("best-guess history should be keyed on trip_id")
	}
}

func TestAdaptationConvergesInFirstTenQueries(t *testing.T) {
	// §7.6: "AdaptDB can finish adapting the dataset according to the join
	// attribute in the first 10 queries."
	d := Generate(400, 3)
	store := dfs.NewStore(4, 2, 1)
	tb, err := LoadAll(store, d, LoadConfig{RowsPerBlock: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 10, Seed: 7})
	for _, q := range Trace(d, 4)[:12] {
		var meter cluster.Meter
		if _, err := opt.OnQuery(planner.Uses(q.Plan(tb)), &meter); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Trips.TreeFor(TTripID) < 0 {
		t.Errorf("trips did not adapt to trip_id within 12 queries")
	}
}
