// Package baselines implements the non-AdaptDB comparison systems of
// §7: predicate-based reference partitioning (PREF, Zamanian et al.
// SIGMOD'15) as used in Fig. 12. PREF co-partitions the TPC-H join
// graph by replicating dimension rows into every fact partition that
// references them, so all joins run partition-local with no shuffling —
// at the price of replicated I/O and key-only partitioning that cannot
// skip data on selection predicates.
package baselines

import (
	"fmt"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/predicate"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

// PREF holds a reference-partitioned copy of the TPC-H tables: orders
// range-partitioned on orderkey into K partitions, lineitem co-located
// by reference on l_orderkey, and customer/part replicated per
// referencing partition.
type PREF struct {
	K int

	line [][]tuple.Tuple
	ord  [][]tuple.Tuple
	cust [][]tuple.Tuple
	part [][]tuple.Tuple

	// Zone maps (one coarse block per table per partition).
	lineZone, ordZone, custZone, partZone []*block.Block
}

// BuildPREF constructs the layout. K plays the role of the paper's
// partition-count knob (they found 200 optimal on 10 nodes at SF 1000;
// scale K with the data).
func BuildPREF(d *tpch.Dataset, k int) *PREF {
	if k < 1 {
		k = 1
	}
	p := &PREF{
		K:    k,
		line: make([][]tuple.Tuple, k),
		ord:  make([][]tuple.Tuple, k),
		cust: make([][]tuple.Tuple, k),
		part: make([][]tuple.Tuple, k),
	}
	// Range-partition orders on orderkey: orderkeys are dense 1..N.
	n := int64(len(d.Orders))
	partOf := func(orderKey int64) int {
		i := int((orderKey - 1) * int64(k) / n)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		return i
	}
	custKeys := make([]map[int64]bool, k)
	partKeys := make([]map[int64]bool, k)
	for i := 0; i < k; i++ {
		custKeys[i] = make(map[int64]bool)
		partKeys[i] = make(map[int64]bool)
	}
	for _, o := range d.Orders {
		i := partOf(o[tpch.OOrderKey].Int64())
		p.ord[i] = append(p.ord[i], o)
		custKeys[i][o[tpch.OCustKey].Int64()] = true
	}
	for _, l := range d.Lineitem {
		i := partOf(l[tpch.LOrderKey].Int64())
		p.line[i] = append(p.line[i], l)
		partKeys[i][l[tpch.LPartKey].Int64()] = true
	}
	// Replicate dimensions into every partition that references them.
	for _, c := range d.Customer {
		key := c[tpch.CCustKey].Int64()
		for i := 0; i < k; i++ {
			if custKeys[i][key] {
				p.cust[i] = append(p.cust[i], c)
			}
		}
	}
	for _, pt := range d.Part {
		key := pt[tpch.PPartKey].Int64()
		for i := 0; i < k; i++ {
			if partKeys[i][key] {
				p.part[i] = append(p.part[i], pt)
			}
		}
	}
	zone := func(parts [][]tuple.Tuple) []*block.Block {
		out := make([]*block.Block, k)
		for i, rows := range parts {
			b := &block.Block{}
			b.AppendRows(rows)
			out[i] = b
		}
		return out
	}
	p.lineZone = zone(p.line)
	p.ordZone = zone(p.ord)
	p.custZone = zone(p.cust)
	p.partZone = zone(p.part)
	return p
}

// scanPart reads one table partition if its zone map may match, filters
// rows, and meters the read. Partition-local reads never shuffle.
func scanPart(rows []tuple.Tuple, zone *block.Block, preds []predicate.Predicate, ranges map[int]predicate.Range, meter *cluster.Meter) []tuple.Tuple {
	if len(rows) == 0 || (len(ranges) > 0 && !zone.MaybeMatches(ranges)) {
		return nil
	}
	meter.AddScan(len(rows), true)
	var out []tuple.Tuple
	for _, r := range rows {
		if predicate.MatchesAll(preds, r) {
			out = append(out, r)
		}
	}
	return out
}

// Run executes a TPC-H template instance on the PREF layout with
// partition-local joins, metering all I/O. It returns the number of
// result rows.
func (p *PREF) Run(in *tpch.Instance, meter *cluster.Meter) (int, error) {
	lr := predicate.ColumnRanges(in.LinePreds)
	or := predicate.ColumnRanges(in.OrdPreds)
	cr := predicate.ColumnRanges(in.CustPreds)
	pr := predicate.ColumnRanges(in.PartPreds)
	// The joins meter their result rows into a throwaway meter: Run
	// meters the query's result rows itself, once.
	ex := exec.New(nil, &cluster.Meter{})
	ex.Workers = 1
	join := func(l exec.Operator, lCol int, r exec.Operator, rCol int) exec.Operator {
		return ex.JoinOp(l, lCol, r, rCol, exec.JoinOptions{})
	}
	src := func(rows []tuple.Tuple) exec.Operator { return exec.NewSource(rows) }
	total := 0
	for i := 0; i < p.K; i++ {
		var op exec.Operator
		switch in.Template {
		case tpch.Q6:
			total += len(scanPart(p.line[i], p.lineZone[i], in.LinePreds, lr, meter))
			continue
		case tpch.Q3, tpch.Q5, tpch.Q10:
			lf := scanPart(p.line[i], p.lineZone[i], in.LinePreds, lr, meter)
			of := scanPart(p.ord[i], p.ordZone[i], in.OrdPreds, or, meter)
			cf := scanPart(p.cust[i], p.custZone[i], in.CustPreds, cr, meter)
			lo := join(src(lf), tpch.LOrderKey, src(of), tpch.OOrderKey)
			op = join(lo, tpch.LineitemSchema.NumCols()+tpch.OCustKey, src(cf), tpch.CCustKey)
		case tpch.Q12:
			lf := scanPart(p.line[i], p.lineZone[i], in.LinePreds, lr, meter)
			of := scanPart(p.ord[i], p.ordZone[i], in.OrdPreds, or, meter)
			op = join(src(lf), tpch.LOrderKey, src(of), tpch.OOrderKey)
		case tpch.Q14, tpch.Q19:
			lf := scanPart(p.line[i], p.lineZone[i], in.LinePreds, lr, meter)
			pf := scanPart(p.part[i], p.partZone[i], in.PartPreds, pr, meter)
			op = join(src(lf), tpch.LPartKey, src(pf), tpch.PPartKey)
		case tpch.Q8:
			lf := scanPart(p.line[i], p.lineZone[i], in.LinePreds, lr, meter)
			pf := scanPart(p.part[i], p.partZone[i], in.PartPreds, pr, meter)
			of := scanPart(p.ord[i], p.ordZone[i], in.OrdPreds, or, meter)
			cf := scanPart(p.cust[i], p.custZone[i], in.CustPreds, cr, meter)
			lp := join(src(lf), tpch.LPartKey, src(pf), tpch.PPartKey)
			oc := join(src(of), tpch.OCustKey, src(cf), tpch.CCustKey)
			// Both intermediates are orderkey-aligned in this partition, so
			// the final join is local too.
			op = join(lp, tpch.LOrderKey, oc, tpch.OOrderKey)
		default:
			return 0, fmt.Errorf("baselines: PREF cannot run template %q", in.Template)
		}
		n, err := exec.Count(op)
		if err != nil {
			return 0, err
		}
		total += n
	}
	meter.AddResultRows(total)
	return total, nil
}
