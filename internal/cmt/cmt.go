package cmt

import (
	"fmt"
	"math/rand"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Trips column indexes (the named head of the 115-column fact table).
const (
	TTripID = iota
	TUserID
	TStartTime
	TEndTime
	TAvgVelocity
	TMaxVelocity
	TDistance
	namedTripCols
)

// TripCols is the fact table's total column count (115, as in §7.6).
const TripCols = 115

// History column indexes.
const (
	HTripID = iota
	HVersion
	HScore
	HProcessedAt
	namedHistCols
)

// HistCols is the historical-results table width.
const HistCols = 20

// Latest column indexes.
const (
	LTripID = iota
	LScore
	LProcessedAt
	namedLatestCols
)

// LatestCols is the latest-results table width (20 + 13 = 33 dimension
// columns total, as the paper states).
const LatestCols = 13

func buildSchema(name string, named []schema.Column, total int) *schema.Schema {
	cols := append([]schema.Column(nil), named...)
	for i := len(cols); i < total; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("%s_f%d", name, i), Kind: value.Int})
	}
	return schema.MustNew(cols...)
}

// Schemas of the three tables.
var (
	TripsSchema = buildSchema("t", []schema.Column{
		{Name: "trip_id", Kind: value.Int},
		{Name: "user_id", Kind: value.Int},
		{Name: "start_time", Kind: value.Int},
		{Name: "end_time", Kind: value.Int},
		{Name: "avg_velocity", Kind: value.Float},
		{Name: "max_velocity", Kind: value.Float},
		{Name: "distance", Kind: value.Float},
	}, TripCols)
	HistorySchema = buildSchema("h", []schema.Column{
		{Name: "trip_id", Kind: value.Int},
		{Name: "version", Kind: value.Int},
		{Name: "score", Kind: value.Float},
		{Name: "processed_at", Kind: value.Int},
	}, HistCols)
	LatestSchema = buildSchema("r", []schema.Column{
		{Name: "trip_id", Kind: value.Int},
		{Name: "score", Kind: value.Float},
		{Name: "processed_at", Kind: value.Int},
	}, LatestCols)
)

// TimeSpan is the start_time domain in arbitrary epoch-second units.
const TimeSpan = 1 << 22

// Dataset holds generated CMT rows.
type Dataset struct {
	NumTrips int
	NumUsers int
	Trips    []tuple.Tuple
	History  []tuple.Tuple
	Latest   []tuple.Tuple
}

// Generate builds a deterministic dataset: numTrips trips across
// numTrips/50 users, 1–4 historical results per trip and one latest
// result per trip.
func Generate(numTrips int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	users := numTrips / 50
	if users < 5 {
		users = 5
	}
	d := &Dataset{NumTrips: numTrips, NumUsers: users}
	for id := 1; id <= numTrips; id++ {
		start := rng.Int63n(TimeSpan)
		trip := make(tuple.Tuple, 0, TripCols)
		trip = append(trip,
			value.NewInt(int64(id)),
			value.NewInt(1+rng.Int63n(int64(users))),
			value.NewInt(start),
			value.NewInt(start+600+rng.Int63n(7200)),
			value.NewFloat(20+rng.Float64()*60),
			value.NewFloat(40+rng.Float64()*100),
			value.NewFloat(rng.Float64()*120),
		)
		for c := namedTripCols; c < TripCols; c++ {
			trip = append(trip, value.NewInt(rng.Int63n(1000)))
		}
		d.Trips = append(d.Trips, trip)

		versions := 1 + rng.Intn(4)
		for v := 1; v <= versions; v++ {
			h := make(tuple.Tuple, 0, HistCols)
			h = append(h,
				value.NewInt(int64(id)),
				value.NewInt(int64(v)),
				value.NewFloat(rng.Float64()*100),
				value.NewInt(start+int64(v)*1000),
			)
			for c := namedHistCols; c < HistCols; c++ {
				h = append(h, value.NewInt(rng.Int63n(1000)))
			}
			d.History = append(d.History, h)
		}
		l := make(tuple.Tuple, 0, LatestCols)
		l = append(l,
			value.NewInt(int64(id)),
			value.NewFloat(rng.Float64()*100),
			value.NewInt(start+int64(versions)*1000),
		)
		for c := namedLatestCols; c < LatestCols; c++ {
			l = append(l, value.NewInt(rng.Int63n(1000)))
		}
		d.Latest = append(d.Latest, l)
	}
	return d
}

// Tables binds the loaded CMT tables.
type Tables struct {
	Trips   *core.Table
	History *core.Table
	Latest  *core.Table
}

// LoadConfig controls table loading.
type LoadConfig struct {
	RowsPerBlock int
	// JoinAttrs per table ("trips", "history", "latest"); missing = -1.
	JoinAttrs map[string]int
	// Attrs restricts selection attributes per table (the hand-tuned
	// "Best Guess" baseline uses the trace's predicate columns).
	Attrs map[string][]int
	Seed  int64
}

// LoadAll loads the three tables.
func LoadAll(store *dfs.Store, d *Dataset, cfg LoadConfig) (*Tables, error) {
	if cfg.RowsPerBlock <= 0 {
		cfg.RowsPerBlock = 1024
	}
	attr := func(name string) int {
		if a, ok := cfg.JoinAttrs[name]; ok {
			return a
		}
		return -1
	}
	tb := &Tables{}
	var err error
	if tb.Trips, err = core.Load(store, "trips", TripsSchema, d.Trips, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("trips"), Attrs: cfg.Attrs["trips"], Seed: cfg.Seed + 1,
	}); err != nil {
		return nil, err
	}
	if tb.History, err = core.Load(store, "history", HistorySchema, d.History, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("history"), Attrs: cfg.Attrs["history"], Seed: cfg.Seed + 2,
	}); err != nil {
		return nil, err
	}
	if tb.Latest, err = core.Load(store, "latest", LatestSchema, d.Latest, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("latest"), Attrs: cfg.Attrs["latest"], Seed: cfg.Seed + 3,
	}); err != nil {
		return nil, err
	}
	return tb, nil
}

// Kind classifies trace queries.
type Kind string

// Trace query kinds, mirroring the §7.6 workload description.
const (
	KindLookup      Kind = "lookup"       // trip metadata only
	KindHistoryJoin Kind = "history-join" // trip ⋈ historical results
	KindLatestJoin  Kind = "latest-join"  // trip ⋈ most recent result
	KindBigScan     Kind = "big-scan"     // large-fraction fetch with join
)

// TraceQuery is one query of the 103-query production trace.
type TraceQuery struct {
	Seq       int
	Kind      Kind
	TripPreds []predicate.Predicate
}

// TraceLen matches the paper's trace (103 queries over three days).
const TraceLen = 103

// Trace generates the 103-query trace: user/time-range sub-selects,
// mostly joining history; queries 30–50 include the batch fetching a
// large fraction of the data.
func Trace(d *Dataset, seed int64) []TraceQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]TraceQuery, 0, TraceLen)
	for i := 0; i < TraceLen; i++ {
		q := TraceQuery{Seq: i}
		bigBatch := i >= 30 && i < 50 && rng.Intn(2) == 0
		switch {
		case bigBatch:
			q.Kind = KindBigScan
			// Fetch a ~40–70% time slice.
			width := TimeSpan * (40 + rng.Int63n(30)) / 100
			lo := rng.Int63n(TimeSpan - width)
			q.TripPreds = []predicate.Predicate{
				predicate.NewCmp(TStartTime, predicate.GE, value.NewInt(lo)),
				predicate.NewCmp(TStartTime, predicate.LT, value.NewInt(lo+width)),
			}
		default:
			r := rng.Float64()
			switch {
			case r < 0.20:
				q.Kind = KindLookup
			case r < 0.85:
				q.Kind = KindHistoryJoin
			default:
				q.Kind = KindLatestJoin
			}
			// Small sub-select: one user and a narrow time range.
			user := 1 + rng.Int63n(int64(d.NumUsers))
			width := int64(TimeSpan / 8)
			lo := rng.Int63n(TimeSpan - width)
			q.TripPreds = []predicate.Predicate{
				predicate.NewCmp(TUserID, predicate.EQ, value.NewInt(user)),
				predicate.NewCmp(TStartTime, predicate.GE, value.NewInt(lo)),
				predicate.NewCmp(TStartTime, predicate.LT, value.NewInt(lo+width)),
			}
		}
		out = append(out, q)
	}
	return out
}

// Plan builds the execution plan for a trace query.
func (q *TraceQuery) Plan(tb *Tables) planner.Node {
	trips := &planner.Scan{Table: tb.Trips, Preds: q.TripPreds}
	switch q.Kind {
	case KindLookup:
		return trips
	case KindLatestJoin:
		return &planner.Join{Left: trips, Right: &planner.Scan{Table: tb.Latest},
			LCol: TTripID, RCol: LTripID}
	default: // history-join and big-scan both join history
		return &planner.Join{Left: trips, Right: &planner.Scan{Table: tb.History},
			LCol: TTripID, RCol: HTripID}
	}
}

// BestGuessAttrs returns the hand-tuned fixed-partitioning layout of
// §7.6: trees keyed on trip_id with the trace's selection attributes
// (user_id, start_time) in the lower levels.
func BestGuessAttrs() (joinAttrs map[string]int, attrs map[string][]int) {
	joinAttrs = map[string]int{"trips": TTripID, "history": HTripID, "latest": LTripID}
	attrs = map[string][]int{
		"trips":   {TUserID, TStartTime},
		"history": {HVersion, HProcessedAt},
		"latest":  {LProcessedAt},
	}
	return
}
