package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/planner"
	"adaptdb/internal/predicate"
	"adaptdb/internal/value"
)

// Tables binds the loaded AdaptDB tables for the benchmark.
type Tables struct {
	Lineitem *core.Table
	Orders   *core.Table
	Customer *core.Table
	Part     *core.Table
	Supplier *core.Table
}

// LoadConfig controls how the dataset is loaded into the store.
type LoadConfig struct {
	RowsPerBlock int
	// JoinAttrs maps table name → initial two-phase join attribute, or -1
	// for a random upfront (Amoeba) partitioning. Missing entries mean -1
	// — §7.3 starts "randomly partitioned by the upfront partitioner".
	JoinAttrs map[string]int
	// Attrs restricts each table's selection attributes — used to model
	// layouts already converged to a workload's predicate columns, as the
	// paper's Fig. 12 setup does by running the adapter to convergence.
	Attrs map[string][]int
	// JoinLevels for two-phase loads; 0 = half depth.
	JoinLevels int
	Seed       int64
}

// LoadAll loads every table of the dataset into the store.
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
	if tb.Lineitem, err = core.Load(store, "lineitem", LineitemSchema, d.Lineitem, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("lineitem"), Attrs: cfg.Attrs["lineitem"], JoinLevels: cfg.JoinLevels, Seed: cfg.Seed + 1,
	}); err != nil {
		return nil, fmt.Errorf("tpch: load lineitem: %w", err)
	}
	if tb.Orders, err = core.Load(store, "orders", OrdersSchema, d.Orders, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("orders"), Attrs: cfg.Attrs["orders"], JoinLevels: cfg.JoinLevels, Seed: cfg.Seed + 2,
	}); err != nil {
		return nil, fmt.Errorf("tpch: load orders: %w", err)
	}
	if tb.Customer, err = core.Load(store, "customer", CustomerSchema, d.Customer, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("customer"), Attrs: cfg.Attrs["customer"], JoinLevels: cfg.JoinLevels, Seed: cfg.Seed + 3,
	}); err != nil {
		return nil, fmt.Errorf("tpch: load customer: %w", err)
	}
	if tb.Part, err = core.Load(store, "part", PartSchema, d.Part, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("part"), Attrs: cfg.Attrs["part"], JoinLevels: cfg.JoinLevels, Seed: cfg.Seed + 4,
	}); err != nil {
		return nil, fmt.Errorf("tpch: load part: %w", err)
	}
	if tb.Supplier, err = core.Load(store, "supplier", SupplierSchema, d.Supplier, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, JoinAttr: attr("supplier"), Attrs: cfg.Attrs["supplier"], JoinLevels: cfg.JoinLevels, Seed: cfg.Seed + 5,
	}); err != nil {
		return nil, fmt.Errorf("tpch: load supplier: %w", err)
	}
	return tb, nil
}

// Template identifies one of the eight evaluated query templates.
type Template string

// The eight templates of §7.1 (the rest either skip lineitem or have no
// selective filters, as the paper explains).
const (
	Q3  Template = "q3"
	Q5  Template = "q5"
	Q6  Template = "q6"
	Q8  Template = "q8"
	Q10 Template = "q10"
	Q12 Template = "q12"
	Q14 Template = "q14"
	Q19 Template = "q19"
)

// AllTemplates lists the templates in the §7.3 workload order.
var AllTemplates = []Template{Q3, Q5, Q6, Q8, Q10, Q12, Q14, Q19}

// JoinTemplates lists the templates used in Fig. 12 (q6 has no join).
var JoinTemplates = []Template{Q3, Q5, Q8, Q10, Q12, Q14, Q19}

// Instance is a concrete query drawn from a template: predicates with
// bound parameters. Plan builds its join tree, and planner.Uses derives
// the join attribute each table votes from that tree.
type Instance struct {
	Template  Template
	LinePreds []predicate.Predicate
	OrdPreds  []predicate.Predicate
	CustPreds []predicate.Predicate
	PartPreds []predicate.Predicate
}

func dateRange(col int, lo, hi int64) []predicate.Predicate {
	return []predicate.Predicate{
		predicate.NewCmp(col, predicate.GE, value.NewDate(lo)),
		predicate.NewCmp(col, predicate.LT, value.NewDate(hi)),
	}
}

// NewInstance draws a concrete query from a template with dbgen-style
// parameter distributions.
func NewInstance(tpl Template, d *Dataset, rng *rand.Rand) *Instance {
	in := &Instance{Template: tpl}
	switch tpl {
	case Q3:
		// Segment customers, orders before D, shipments after D.
		D := value.DateOf(1995, 3, 1).Int64() + rng.Int63n(31)
		in.CustPreds = []predicate.Predicate{
			predicate.NewCmp(CMktSegment, predicate.EQ, value.NewString(Segments[rng.Intn(len(Segments))])),
		}
		in.OrdPreds = []predicate.Predicate{
			predicate.NewCmp(OOrderDate, predicate.LT, value.NewDate(D)),
		}
		in.LinePreds = []predicate.Predicate{
			predicate.NewCmp(LShipDate, predicate.GT, value.NewDate(D)),
		}
	case Q5:
		// Region + one order year; no lineitem predicate at all (§5.3).
		y := 1993 + rng.Intn(5)
		lo := value.DateOf(y, 1, 1).Int64()
		hi := value.DateOf(y+1, 1, 1).Int64()
		in.OrdPreds = dateRange(OOrderDate, lo, hi)
		in.CustPreds = []predicate.Predicate{nationIn(CNationKey, d, rng.Int63n(NumRegions))}
	case Q6:
		// Pure selection on lineitem: one ship year, a discount band and a
		// quantity cap. No join.
		y := 1993 + rng.Intn(5)
		lo := value.DateOf(y, 1, 1).Int64()
		hi := value.DateOf(y+1, 1, 1).Int64()
		disc := 0.02 + float64(rng.Intn(8))/100
		in.LinePreds = append(dateRange(LShipDate, lo, hi),
			predicate.NewCmp(LDiscount, predicate.GE, value.NewFloat(disc-0.01)),
			predicate.NewCmp(LDiscount, predicate.LE, value.NewFloat(disc+0.01)),
			predicate.NewCmp(LQuantity, predicate.LT, value.NewFloat(float64(24+rng.Intn(2)))),
		)
	case Q8:
		// Bushy plan (§4.3): (lineitem ⋈ part) ⋈ (orders ⋈ customer).
		t := TypeSyllable1[rng.Intn(len(TypeSyllable1))] + " " +
			TypeSyllable2[rng.Intn(len(TypeSyllable2))] + " " +
			TypeSyllable3[rng.Intn(len(TypeSyllable3))]
		in.PartPreds = []predicate.Predicate{
			predicate.NewCmp(PType, predicate.EQ, value.NewString(t)),
		}
		in.OrdPreds = dateRange(OOrderDate,
			value.DateOf(1995, 1, 1).Int64(), value.DateOf(1997, 1, 1).Int64())
		in.CustPreds = []predicate.Predicate{nationIn(CNationKey, d, rng.Int63n(NumRegions))}
	case Q10:
		// Returned items in a 3-month order window.
		start := value.DateOf(1993, 2, 1).Int64() + int64(rng.Intn(24))*30
		in.OrdPreds = dateRange(OOrderDate, start, start+90)
		in.LinePreds = []predicate.Predicate{
			predicate.NewCmp(LReturnFlag, predicate.EQ, value.NewString("R")),
		}
	case Q12:
		// Two ship modes and one receipt year. (The paper's cross-column
		// commit/receipt comparisons are not range predicates and are
		// dropped; the selectivity profile is preserved.)
		m1 := rng.Intn(len(ShipModes))
		m2 := (m1 + 1 + rng.Intn(len(ShipModes)-1)) % len(ShipModes)
		y := 1993 + rng.Intn(5)
		in.LinePreds = append(dateRange(LReceiptDate,
			value.DateOf(y, 1, 1).Int64(), value.DateOf(y+1, 1, 1).Int64()),
			predicate.NewIn(LShipMode, value.NewString(ShipModes[m1]), value.NewString(ShipModes[m2])),
		)
	case Q14:
		// One ship month; joins part.
		y := 1993 + rng.Intn(5)
		m := 1 + rng.Intn(12)
		lo := value.DateOf(y, time.Month(m), 1).Int64()
		in.LinePreds = dateRange(LShipDate, lo, lo+30)
	case Q19:
		// Brand + containers + quantity band + shipping constraints.
		brand := fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))
		var containers []value.Value
		for i := 0; i < 4; i++ {
			containers = append(containers, value.NewString(Containers[rng.Intn(len(Containers))]))
		}
		qlo := float64(1 + rng.Intn(10))
		in.PartPreds = []predicate.Predicate{
			predicate.NewCmp(PBrand, predicate.EQ, value.NewString(brand)),
			predicate.NewIn(PContainer, containers...),
		}
		in.LinePreds = []predicate.Predicate{
			predicate.NewCmp(LQuantity, predicate.GE, value.NewFloat(qlo)),
			predicate.NewCmp(LQuantity, predicate.LE, value.NewFloat(qlo+10)),
			predicate.NewIn(LShipMode, value.NewString("AIR"), value.NewString("REG AIR")),
			predicate.NewCmp(LShipInstruct, predicate.EQ, value.NewString("DELIVER IN PERSON")),
		}
	default:
		panic(fmt.Sprintf("tpch: unknown template %q", tpl))
	}
	return in
}

// nationIn folds nation ⋈ region for one region into an IN predicate.
func nationIn(col int, d *Dataset, region int64) predicate.Predicate {
	var vals []value.Value
	for _, n := range d.NationsOfRegion(region) {
		vals = append(vals, value.NewInt(n))
	}
	return predicate.NewIn(col, vals...)
}

// Plan builds the execution plan for the instance over the loaded
// tables, matching the join orders discussed in §4.3.
func (in *Instance) Plan(tb *Tables) planner.Node {
	lw := LineitemSchema.NumCols()
	switch in.Template {
	case Q6:
		return &planner.Scan{Table: tb.Lineitem, Preds: in.LinePreds}
	case Q3, Q5, Q10:
		// (lineitem ⋈ orders) ⋈ customer.
		inner := &planner.Join{
			Left:  &planner.Scan{Table: tb.Lineitem, Preds: in.LinePreds},
			Right: &planner.Scan{Table: tb.Orders, Preds: in.OrdPreds},
			LCol:  LOrderKey, RCol: OOrderKey,
		}
		return &planner.Join{
			Left:  inner,
			Right: &planner.Scan{Table: tb.Customer, Preds: in.CustPreds},
			LCol:  lw + OCustKey, RCol: CCustKey,
		}
	case Q8:
		// (lineitem ⋈ part) ⋈ (orders ⋈ customer) — two hyper-joins plus a
		// shuffle of the intermediates (§4.3).
		lp := &planner.Join{
			Left:  &planner.Scan{Table: tb.Lineitem, Preds: in.LinePreds},
			Right: &planner.Scan{Table: tb.Part, Preds: in.PartPreds},
			LCol:  LPartKey, RCol: PPartKey,
		}
		oc := &planner.Join{
			Left:  &planner.Scan{Table: tb.Orders, Preds: in.OrdPreds},
			Right: &planner.Scan{Table: tb.Customer, Preds: in.CustPreds},
			LCol:  OCustKey, RCol: CCustKey,
		}
		return &planner.Join{Left: lp, Right: oc, LCol: LOrderKey, RCol: OOrderKey}
	case Q12:
		return &planner.Join{
			Left:  &planner.Scan{Table: tb.Lineitem, Preds: in.LinePreds},
			Right: &planner.Scan{Table: tb.Orders, Preds: in.OrdPreds},
			LCol:  LOrderKey, RCol: OOrderKey,
		}
	case Q14, Q19:
		return &planner.Join{
			Left:  &planner.Scan{Table: tb.Lineitem, Preds: in.LinePreds},
			Right: &planner.Scan{Table: tb.Part, Preds: in.PartPreds},
			LCol:  LPartKey, RCol: PPartKey,
		}
	default:
		panic(fmt.Sprintf("tpch: no plan for template %q", in.Template))
	}
}

// LineitemJoinAttrFor reports the lineitem join column a template drives
// toward — used by experiments that pre-converge tables (Fig. 12).
func LineitemJoinAttrFor(tpl Template) int {
	switch tpl {
	case Q8, Q14, Q19:
		return LPartKey
	case Q6:
		return -1
	default:
		return LOrderKey
	}
}
