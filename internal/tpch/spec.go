// The declarative form of the TPC-H templates: Catalog exposes the
// loaded tables for spec binding, and Instance.Spec renders each
// template's join graph over named columns — the same graphs Plan
// hand-builds positionally, now declared once and ordered by the
// planner's greedy pass. GroupedSpec is the grouped-aggregate shape
// the end-to-end acceptance runs exercise.
package tpch

import (
	"adaptdb/internal/core"
	"adaptdb/internal/query"
)

// Catalog exposes the loaded tables under their store names for spec
// binding.
func (tb *Tables) Catalog() query.Catalog {
	cat := query.Catalog{}
	for _, t := range []*core.Table{tb.Lineitem, tb.Orders, tb.Customer, tb.Part, tb.Supplier} {
		if t != nil {
			cat[t.Name] = t
		}
	}
	return cat
}

// Spec builds the declarative form of the instance: the same join
// graph as Plan, with join order left to the planner's greedy pass.
// Declaration order matches Plan's hand-built order, so FixedOrder
// reproduces Plan's left-deep trees — but not q8's: a spec lowers to a
// left-deep tree where Plan is bushy ((lineitem ⋈ part) ⋈ (orders ⋈
// customer), §4.3), and the spec votes orders on o_orderkey (its first
// edge touching orders) where the plan votes o_custkey.
func (in *Instance) Spec() query.Spec {
	line := query.TableRef{Name: "lineitem", Preds: query.NamedPreds(LineitemSchema, in.LinePreds)}
	ord := query.TableRef{Name: "orders", Preds: query.NamedPreds(OrdersSchema, in.OrdPreds)}
	cust := query.TableRef{Name: "customer", Preds: query.NamedPreds(CustomerSchema, in.CustPreds)}
	part := query.TableRef{Name: "part", Preds: query.NamedPreds(PartSchema, in.PartPreds)}
	lo := query.On(query.C("lineitem", "l_orderkey"), query.C("orders", "o_orderkey"))
	oc := query.On(query.C("orders", "o_custkey"), query.C("customer", "c_custkey"))
	lp := query.On(query.C("lineitem", "l_partkey"), query.C("part", "p_partkey"))

	s := query.Spec{Label: string(in.Template)}
	switch in.Template {
	case Q6:
		s.Tables = []query.TableRef{line}
	case Q3, Q5, Q10:
		s.Tables = []query.TableRef{line, ord, cust}
		s.Joins = []query.JoinEdge{lo, oc}
	case Q8:
		s.Tables = []query.TableRef{line, part, ord, cust}
		s.Joins = []query.JoinEdge{lp, lo, oc}
	case Q12:
		s.Tables = []query.TableRef{line, ord}
		s.Joins = []query.JoinEdge{lo}
	case Q14, Q19:
		s.Tables = []query.TableRef{line, part}
		s.Joins = []query.JoinEdge{lp}
	}
	return s
}

// GroupedSpec is the grouped-aggregate form of a 3-table instance
// (q3/q5/q10 shapes): group the joined stream by customer nation and
// reduce with COUNT, SUM and MIN/MAX over integer columns — integer
// aggregates keep the result bit-identical across execution orders,
// node counts and memory budgets, which the differential acceptance
// matrix checks.
func (in *Instance) GroupedSpec() query.Spec {
	s := in.Spec()
	s.Label = s.Label + "-grouped"
	s.GroupBy = []query.Col{query.C("customer", "c_nationkey")}
	s.Aggs = []query.Agg{
		query.Count(),
		query.Sum(query.C("lineitem", "l_orderkey")),
		query.Min(query.C("orders", "o_orderkey")),
		query.Max(query.C("lineitem", "l_partkey")),
	}
	return s
}
