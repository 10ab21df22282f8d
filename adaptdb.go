// Package adaptdb is an adaptive storage manager for analytical,
// join-heavy workloads — a from-scratch Go reproduction of
// "AdaptDB: Adaptive Partitioning for Distributed Joins" (Lu, Shanbhag,
// Jindal, Madden; PVLDB 10(5), 2017).
//
// AdaptDB stores each table as blocks on a (simulated) distributed file
// system, organized by partitioning trees. It answers predicate scans by
// reading only matching blocks, executes joins with the shuffle-free
// hyper-join algorithm whenever block overlap permits, and — as queries
// arrive — smoothly repartitions tables onto the join attributes the
// workload actually uses, a few blocks at a time.
//
// Quick start:
//
//	db := adaptdb.Open(adaptdb.Options{})
//	tbl, _ := db.CreateTable("users", adaptdb.NewSchema(
//	    adaptdb.Col("id", adaptdb.KindInt),
//	    adaptdb.Col("age", adaptdb.KindInt),
//	), rows)
//	res, _ := db.Query("users").Where("age", adaptdb.GT, adaptdb.Int(30)).Run()
//
// See the examples directory for joins, adaptation, and the paper's
// workloads, and EXPERIMENTS.md for the reproduced evaluation.
package adaptdb

import (
	"fmt"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// Re-exported core types: rows are slices of Values conforming to a
// Schema.
type (
	// Value is a typed scalar cell.
	Value = value.Value
	// Row is one tuple.
	Row = tuple.Tuple
	// Schema describes a table's columns.
	Schema = schema.Schema
	// Column is one schema column.
	Column = schema.Column
	// Kind is a column type.
	Kind = value.Kind
)

// Column kinds.
const (
	KindInt    = value.Int
	KindFloat  = value.Float
	KindString = value.String
	KindDate   = value.Date
	KindBool   = value.Bool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.NewInt
	// Float builds a float value.
	Float = value.NewFloat
	// String builds a string value.
	String = value.NewString
	// Date builds a date value from days since 1970-01-01.
	Date = value.NewDate
	// DateOf builds a date value from a calendar date.
	DateOf = value.DateOf
	// Bool builds a boolean value.
	Bool = value.NewBool
)

// CmpOp is a predicate comparison operator.
type CmpOp = predicate.Op

// Comparison operators for Where clauses.
const (
	EQ = predicate.EQ
	NE = predicate.NE
	LT = predicate.LT
	LE = predicate.LE
	GT = predicate.GT
	GE = predicate.GE
	IN = predicate.In
)

// NewSchema builds a schema from columns; it panics on duplicates, like
// schema.MustNew, since schemas are almost always statically known.
func NewSchema(cols ...Column) *Schema { return schema.MustNew(cols...) }

// Col is shorthand for a schema column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// Mode selects the repartitioning policy.
type Mode = optimizer.Mode

// Repartitioning policies.
const (
	// ModeAdaptive (default): smooth repartitioning plus selection
	// adaptation — the full AdaptDB behaviour.
	ModeAdaptive = optimizer.ModeAdaptive
	// ModeFullRepartition: rebuild a whole table when half the query
	// window wants a new join attribute (the paper's baseline).
	ModeFullRepartition = optimizer.ModeFullRepartition
	// ModeStatic: never repartition.
	ModeStatic = optimizer.ModeStatic
)

// Options configures a DB instance.
type Options struct {
	// Nodes is the simulated cluster size (default 10, as the paper).
	Nodes int
	// Replication is the block replica count (default 2).
	Replication int
	// RowsPerBlock is the block-size analogue (default 1024).
	RowsPerBlock int
	// WindowSize is the query window |W| (default 10).
	WindowSize int
	// BudgetBlocks is the hyper-join memory budget in blocks (default 8).
	BudgetBlocks int
	// Mode is the repartitioning policy (default ModeAdaptive).
	Mode Mode
	// EnableSelectionAdaptation turns on Amoeba-style leaf transformations
	// for selection predicates.
	EnableSelectionAdaptation bool
	// Seed makes all internal randomness reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 10
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.RowsPerBlock <= 0 {
		o.RowsPerBlock = 1024
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 10
	}
	if o.BudgetBlocks <= 0 {
		o.BudgetBlocks = 8
	}
	return o
}

// DB is an AdaptDB instance: a simulated cluster, a set of tables, and
// the adaptive optimizer that repartitions them as queries run.
type DB struct {
	opts   Options
	store  *dfs.Store
	model  cluster.CostModel
	sess   *session.Session
	tables map[string]*core.Table
	total  cluster.Meter
}

// Open creates an empty database over a fresh simulated cluster.
func Open(opts Options) *DB {
	opts = opts.withDefaults()
	model := cluster.Default()
	model.Nodes = opts.Nodes
	store := dfs.NewStore(opts.Nodes, opts.Replication, opts.Seed)
	return &DB{
		opts:  opts,
		store: store,
		model: model,
		sess: session.New(store, session.Config{
			Model: model,
			Optimizer: optimizer.Config{
				Mode:         opts.Mode,
				WindowSize:   opts.WindowSize,
				EnableAmoeba: opts.EnableSelectionAdaptation,
				Seed:         opts.Seed,
			},
			BudgetBlocks: opts.BudgetBlocks,
		}),
		tables: make(map[string]*core.Table),
	}
}

// Table provides table-level introspection.
type Table struct {
	db  *DB
	tbl *core.Table
}

// CreateTable loads rows into a new table using the upfront partitioner
// (no workload knowledge, as in §3.1). Rows must conform to the schema.
func (db *DB) CreateTable(name string, sch *Schema, rows []Row) (*Table, error) {
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("adaptdb: table %q already exists", name)
	}
	for i, r := range rows {
		if err := r.Conforms(sch); err != nil {
			return nil, fmt.Errorf("adaptdb: row %d: %w", i, err)
		}
	}
	tbl, err := core.Load(db.store, name, sch, rows, core.LoadOptions{
		RowsPerBlock: db.opts.RowsPerBlock,
		JoinAttr:     -1,
		Seed:         db.opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	db.tables[name] = tbl
	return &Table{db: db, tbl: tbl}, nil
}

// Table returns a handle to an existing table, or nil.
func (db *DB) Table(name string) *Table {
	tbl, ok := db.tables[name]
	if !ok {
		return nil
	}
	return &Table{db: db, tbl: tbl}
}

// TableStats summarizes a table's physical organization.
type TableStats struct {
	Rows   int
	Trees  int
	Blocks int
	// JoinAttrs lists the join attribute (column name) of each live
	// partitioning tree; selection-only trees report "".
	JoinAttrs []string
}

// Stats returns current physical statistics.
func (t *Table) Stats() TableStats {
	st := TableStats{Rows: t.tbl.TotalRows()}
	for _, i := range t.tbl.LiveTrees() {
		ti := t.tbl.Trees[i]
		st.Trees++
		st.Blocks += ti.Blocks()
		name := ""
		if ti.Tree.JoinAttr >= 0 {
			name = t.tbl.Schema.Name(ti.Tree.JoinAttr)
		}
		st.JoinAttrs = append(st.JoinAttrs, name)
	}
	return st
}

// QueryBuilder assembles a declarative query — a scan, an n-way join,
// optionally grouped and aggregated. Run lowers it through the
// query.Spec layer: names resolve at bind time, and the planner's
// greedy zone-map ordering picks the join order (results always come
// back in table reference order, so the ordering is invisible).
type QueryBuilder struct {
	db   *DB
	err  error
	base string
	// per-table predicate lists (named form) and join structure
	preds   map[string][]query.Pred
	joins   []joinClause
	groupBy []query.Col
	aggs    []query.Agg
}

type joinClause struct {
	table    string
	leftCol  string // resolved against the accumulated output
	rightCol string
}

// Query starts a query over a base table.
func (db *DB) Query(table string) *QueryBuilder {
	qb := &QueryBuilder{db: db, base: table, preds: map[string][]query.Pred{}}
	if _, ok := db.tables[table]; !ok {
		qb.err = fmt.Errorf("adaptdb: no table %q", table)
	}
	return qb
}

// Where adds a comparison predicate on a column of the most recently
// referenced table (the base table before any Join, the joined table
// after).
func (qb *QueryBuilder) Where(col string, op CmpOp, v Value) *QueryBuilder {
	return qb.wherePred(col, query.Pred{Col: col, Op: op, Val: v})
}

// WhereIn adds a membership predicate.
func (qb *QueryBuilder) WhereIn(col string, vs ...Value) *QueryBuilder {
	return qb.wherePred(col, query.Pred{Col: col, Op: predicate.In, Vals: vs})
}

func (qb *QueryBuilder) wherePred(col string, p query.Pred) *QueryBuilder {
	if qb.err != nil {
		return qb
	}
	tname := qb.base
	if len(qb.joins) > 0 {
		tname = qb.joins[len(qb.joins)-1].table
	}
	if qb.db.tables[tname].Schema.Index(col) < 0 {
		qb.err = fmt.Errorf("adaptdb: table %q has no column %q", tname, col)
		return qb
	}
	qb.preds[tname] = append(qb.preds[tname], p)
	return qb
}

// Join adds an equi-join with another table: leftCol names a column of
// any previously referenced table; rightCol a column of the joined one.
func (qb *QueryBuilder) Join(table, leftCol, rightCol string) *QueryBuilder {
	if qb.err != nil {
		return qb
	}
	if _, ok := qb.db.tables[table]; !ok {
		qb.err = fmt.Errorf("adaptdb: no table %q", table)
		return qb
	}
	qb.joins = append(qb.joins, joinClause{table: table, leftCol: leftCol, rightCol: rightCol})
	return qb
}

// GroupBy groups the result on the named columns (each resolved across
// the referenced tables, base first). With grouping or aggregates, each
// result row is the group columns followed by the aggregate values.
func (qb *QueryBuilder) GroupBy(cols ...string) *QueryBuilder {
	for _, col := range cols {
		if qb.err != nil {
			return qb
		}
		c, err := qb.resolveAnywhere(col)
		if err != nil {
			qb.err = err
			return qb
		}
		qb.groupBy = append(qb.groupBy, c)
	}
	return qb
}

// Count adds a COUNT(*) aggregate.
func (qb *QueryBuilder) Count() *QueryBuilder {
	qb.aggs = append(qb.aggs, query.Count())
	return qb
}

// Sum adds SUM(col).
func (qb *QueryBuilder) Sum(col string) *QueryBuilder { return qb.agg(query.AggSum, col) }

// Min adds MIN(col).
func (qb *QueryBuilder) Min(col string) *QueryBuilder { return qb.agg(query.AggMin, col) }

// Max adds MAX(col).
func (qb *QueryBuilder) Max(col string) *QueryBuilder { return qb.agg(query.AggMax, col) }

// Avg adds AVG(col).
func (qb *QueryBuilder) Avg(col string) *QueryBuilder { return qb.agg(query.AggAvg, col) }

func (qb *QueryBuilder) agg(fn query.AggFunc, col string) *QueryBuilder {
	if qb.err != nil {
		return qb
	}
	c, err := qb.resolveAnywhere(col)
	if err != nil {
		qb.err = err
		return qb
	}
	qb.aggs = append(qb.aggs, query.Agg{Func: fn, Col: c})
	return qb
}

// resolveAnywhere finds which referenced table owns col, scanning the
// base table then the joins in order.
func (qb *QueryBuilder) resolveAnywhere(col string) (query.Col, error) {
	names := []string{qb.base}
	for _, jc := range qb.joins {
		names = append(names, jc.table)
	}
	for _, name := range names {
		if qb.db.tables[name].Schema.Index(col) >= 0 {
			return query.C(name, col), nil
		}
	}
	return query.Col{}, fmt.Errorf("adaptdb: column %q not found in %v", col, names)
}

// Stats describes one executed query.
type Stats struct {
	// SimSeconds is the simulated execution time under the paper's cost
	// model (§4.2).
	SimSeconds float64
	// BlocksScanned counts distinct block reads (scan + hyper-join build).
	BlocksScanned int
	// ProbeBlocks counts hyper-join probe reads, with multiplicity.
	ProbeBlocks int
	// Strategies lists the join strategy per join, in plan order
	// ("hyper", "shuffle", "combination", "semi-shuffle").
	Strategies []string
	// RepartitionedRows is how much data the optimizer migrated on this
	// query (smooth repartitioning overhead).
	RepartitionedRows int
}

// Result is a query outcome.
type Result struct {
	Rows  []Row
	Stats Stats
}

// Run executes the query as the next query of the database's
// session: the spec binds against the catalog, the optimizer records
// the votes derived from its join graph and adapts partitioning per
// the query windows, then the planner greedily orders the join graph
// and picks join strategies per the cost model, and the executor runs
// them.
func (qb *QueryBuilder) Run() (*Result, error) {
	if qb.err != nil {
		return nil, qb.err
	}
	db := qb.db
	spec, err := qb.buildSpec()
	if err != nil {
		return nil, err
	}
	q, err := session.FromSpec(query.Catalog(db.tables), spec)
	if err != nil {
		return nil, err
	}
	res, err := db.sess.Execute(q)
	if err != nil {
		return nil, err
	}
	db.total.Merge(res.Counters)
	st := Stats{
		SimSeconds:        res.SimSeconds,
		BlocksScanned:     res.Counters.BlocksScanned,
		ProbeBlocks:       res.Counters.ProbeBlocks,
		RepartitionedRows: res.Adapt.MovedRows,
	}
	for _, j := range res.Report.Joins {
		st.Strategies = append(st.Strategies, j.Strategy)
	}
	return &Result{Rows: res.Rows, Stats: st}, nil
}

// resolveLeft finds which previously referenced table owns leftCol,
// scanning the base table then earlier joins (tables before `until`).
func (qb *QueryBuilder) resolveLeft(col, until string) (string, error) {
	candidates := []string{qb.base}
	for _, jc := range qb.joins {
		if jc.table == until {
			break
		}
		candidates = append(candidates, jc.table)
	}
	for _, name := range candidates {
		if qb.db.tables[name].Schema.Index(col) >= 0 {
			return name, nil
		}
	}
	return "", fmt.Errorf("adaptdb: join column %q not found in %v", col, candidates)
}

// buildSpec renders the builder state as a declarative query.Spec —
// the single source the planner lowers; nothing positional survives
// the public API.
func (qb *QueryBuilder) buildSpec() (query.Spec, error) {
	s := query.Spec{Label: qb.base}
	add := func(name string) {
		s.Tables = append(s.Tables, query.TableRef{Name: name, Preds: qb.preds[name]})
	}
	add(qb.base)
	for _, jc := range qb.joins {
		add(jc.table)
		lTable, err := qb.resolveLeft(jc.leftCol, jc.table)
		if err != nil {
			return query.Spec{}, err
		}
		s.Joins = append(s.Joins, query.On(query.C(lTable, jc.leftCol), query.C(jc.table, jc.rightCol)))
	}
	s.GroupBy = qb.groupBy
	s.Aggs = qb.aggs
	return s, nil
}

// TotalSimSeconds returns cumulative simulated time across all queries.
func (db *DB) TotalSimSeconds() float64 { return db.total.Snapshot().SimSeconds(db.model) }
