package optimizer

import (
	"adaptdb/internal/amoeba"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/predicate"
	"adaptdb/internal/smooth"
	"adaptdb/internal/twophase"
	"adaptdb/internal/workload"
)

// Mode selects the repartitioning policy.
type Mode int

// Policies evaluated in §7.3 and §7.6.
const (
	// ModeAdaptive is AdaptDB proper: smooth repartitioning + Amoeba
	// selection adaptation.
	ModeAdaptive Mode = iota
	// ModeFullRepartition is the "Repartitioning" baseline: when half the
	// query window carries a new join attribute, repartition the whole
	// table at once.
	ModeFullRepartition
	// ModeStatic never repartitions (the "Full Scan" baseline keeps its
	// initial random partitioning).
	ModeStatic
)

// TableUse describes how the incoming query touches one table.
type TableUse struct {
	Table    *core.Table
	JoinAttr int
	Preds    []predicate.Predicate
}

// Config tunes the optimizer.
type Config struct {
	Mode Mode
	// WindowSize is |W| (default 10, the paper's setting).
	WindowSize int
	// FMin gates new-tree creation in smooth repartitioning.
	FMin int
	// EnableAmoeba toggles selection-predicate adaptation.
	EnableAmoeba bool
	Seed         int64
}

// Optimizer holds per-table adaptation state.
type Optimizer struct {
	cfg     Config
	windows map[string]*workload.Window
	smooth  map[string]*smooth.Manager
	adapter map[string]*amoeba.Adapter
	seq     int64
}

// New builds an optimizer.
func New(cfg Config) *Optimizer {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 10
	}
	if cfg.FMin <= 0 {
		cfg.FMin = 1
	}
	return &Optimizer{
		cfg:     cfg,
		windows: make(map[string]*workload.Window),
		smooth:  make(map[string]*smooth.Manager),
		adapter: make(map[string]*amoeba.Adapter),
	}
}

// Window returns (creating on demand) the query window of a table.
func (o *Optimizer) Window(name string) *workload.Window {
	w, ok := o.windows[name]
	if !ok {
		w = workload.NewWindow(o.cfg.WindowSize)
		o.windows[name] = w
	}
	return w
}

func (o *Optimizer) smoothFor(name string) *smooth.Manager {
	m, ok := o.smooth[name]
	if !ok {
		o.seq++
		m = smooth.New(o.Window(name), o.cfg.Seed+o.seq*7919)
		m.FMin = o.cfg.FMin
		o.smooth[name] = m
	}
	return m
}

func (o *Optimizer) adapterFor(name string) *amoeba.Adapter {
	a, ok := o.adapter[name]
	if !ok {
		a = amoeba.New(o.Window(name))
		o.adapter[name] = a
	}
	return a
}

// StepReport summarizes the adaptation triggered by one query.
type StepReport struct {
	MovedRows        int
	CreatedTrees     int
	FullRepartitions int
	AmoebaTransforms int
}

// Adapted reports whether the step changed any table's physical
// layout. The benchmark counts adapting queries with it; the plan
// cache does not read it, since each table reports its own layout
// changes (core.Table.Version).
func (r StepReport) Adapted() bool {
	return r.MovedRows > 0 || r.CreatedTrees > 0 || r.FullRepartitions > 0 || r.AmoebaTransforms > 0
}

// OnQuery records the query in each touched table's window and performs
// the policy's repartitioning work, metering its I/O into the query's
// meter (repartitioning overhead lands on the triggering query, as in
// the paper's per-query latency plots). On error the report still
// counts what changed before the failure, the failing step's partial
// migration included: earlier tables may have been repartitioned, and
// so may the one that failed.
func (o *Optimizer) OnQuery(uses []TableUse, meter *cluster.Meter) (StepReport, error) {
	var rep StepReport
	for _, use := range uses {
		w := o.Window(use.Table.Name)
		q := workload.Query{JoinAttr: use.JoinAttr, Preds: use.Preds}
		w.Add(q)
		switch o.cfg.Mode {
		case ModeStatic:
			// Baseline: never adapt.
		case ModeFullRepartition:
			if err := o.fullRepartition(use.Table, q, meter, &rep); err != nil {
				return rep, err
			}
		case ModeAdaptive:
			sm := o.smoothFor(use.Table.Name)
			res, err := sm.Step(use.Table, q, meter)
			rep.MovedRows += res.MovedRows
			if res.CreatedTree >= 0 {
				rep.CreatedTrees++
			}
			if err != nil {
				return rep, err
			}
			if o.cfg.EnableAmoeba && len(use.Preds) > 0 {
				idx := use.Table.PrimaryTree()
				if idx >= 0 {
					n, err := o.adapterFor(use.Table.Name).Step(use.Table, idx, meter)
					rep.AmoebaTransforms += n
					if err != nil {
						return rep, err
					}
				}
			}
		}
	}
	return rep, nil
}

// fullRepartition implements the §7.3 "Repartitioning" baseline: once
// half the window's queries use a join attribute the table is not
// partitioned on, rebuild the whole table as a two-phase tree on it.
func (o *Optimizer) fullRepartition(tbl *core.Table, q workload.Query, meter *cluster.Meter, rep *StepReport) error {
	t := q.JoinAttr
	if t < 0 || tbl.TreeFor(t) >= 0 {
		return nil
	}
	w := o.Window(tbl.Name)
	if 2*w.CountJoinAttr(t) < w.Cap() {
		return nil
	}
	primary := tbl.PrimaryTree()
	if primary < 0 {
		return nil
	}
	depth := tbl.Trees[primary].Tree.Depth()
	if depth < 2 {
		depth = 4
	}
	o.seq++
	nt := twophase.Builder{
		Schema:     tbl.Schema,
		JoinAttr:   t,
		JoinLevels: depth / 2,
		TotalDepth: depth,
		Seed:       o.cfg.Seed + o.seq*104729,
	}.Build(tbl.SampleRows)
	if err := tbl.ReplaceTreeData(primary, nt, meter); err != nil {
		return err
	}
	rep.FullRepartitions++
	rep.MovedRows += tbl.RowsUnder(primary)
	return nil
}
