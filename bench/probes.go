package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

// Layer probes: one exported operation of one layer, repeated on a
// fixed input that does not depend on the workload, so a change to a
// layer shows in its probe on every workload's traced pass. They say
// what an operation costs in isolation; the traced schedule says how
// often it is on the blocking path.
const (
	probeSeed    = 7
	probeMinReps = 3
	// frameRows is the run-file frame size the spilling join writes.
	frameRows = 1024
)

// probeConfig sizes the probes: the scale factor of their input and
// how long each is repeated.
type probeConfig struct {
	sf      float64
	minTime time.Duration
}

var defaultProbes = probeConfig{sf: 0.05, minTime: 400 * time.Millisecond}

// repeat runs op until minTime has passed and probeMinReps are done,
// and returns the median nanoseconds per unit of one repetition.
func (pc probeConfig) repeat(units int, op func() error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < probeMinReps || time.Since(start) < pc.minTime {
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(per), nil
}

// runProbes measures every layer probe and hands each to put.
func runProbes(pc probeConfig, spill string, put putFunc) error {
	w := workload{sf: pc.sf, mode: optimizer.ModeStatic}
	sys, err := setup(w, probeSeed, spill, false)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	line, orders := sys.tables.Lineitem, sys.tables.Orders
	lineRows, orderRows := len(sys.data.Lineitem), len(sys.data.Orders)
	newExec := func(mem int64) *exec.Executor {
		ex := exec.New(sys.store, &cluster.Meter{})
		ex.Mem = exec.NewMemBudget(mem)
		ex.SpillDir = spill
		return ex
	}
	ex := newExec(0)
	count := func(op exec.Operator, want int) error {
		n, err := exec.Count(op)
		if err == nil && want >= 0 && n != want {
			err = fmt.Errorf("probe returned %d rows, want %d", n, want)
		}
		return err
	}

	q6 := tpch.NewInstance(tpch.Q6, sys.data, rand.New(rand.NewSource(probeSeed))).LinePreds
	// lineitem ⋈ orders on the order key: every lineitem row finds its
	// order, so the output has one row per probe row. The starved
	// variant gets an eighth of the build side's bytes.
	join := func(ex *exec.Executor) func() error {
		return func() error {
			op := ex.JoinOp(ex.TableScanOp(orders, nil), tpch.OOrderKey, ex.TableScanOp(line, nil), tpch.LOrderKey,
				exec.JoinOptions{BuildRowsEst: orderRows})
			return count(op, lineRows)
		}
	}
	buildBytes := int64(0)
	for _, r := range sys.data.Orders {
		buildBytes += int64(r.MemBytes())
	}
	exchange := func() error {
		ns := newExec(0).EnableNodes(0)
		byNode := ns.SplitRefs(ex.TableRefs(line, nil))
		parts := make([]exec.Operator, ns.N())
		for i := range parts {
			parts[i] = ns.ScanAt(i, byNode[i], nil)
		}
		x := ns.Shuffle(parts, tpch.LOrderKey)
		outs := make([]exec.Operator, ns.N())
		for i := range outs {
			outs[i] = x.Output(i)
		}
		return count(exec.Gather(outs...), lineRows)
	}
	groupBy := exec.GroupBySpec{
		GroupCols: []int{tpch.LReturnFlag},
		Aggs:      []exec.AggSpec{{Fn: exec.AggCount, Col: -1}, {Fn: exec.AggSum, Col: tpch.LQuantity}},
	}

	// The frame codec carries both run files and wire frames.
	const framesPerRep = 64
	cols := tuple.NewColumns(len(sys.data.Lineitem[0]))
	cols.AppendRows(sys.data.Lineitem[:frameRows])
	frame := cols.AppendFrame(nil)
	var scratch tuple.FrameScratch
	var hashes []uint64
	perFrame := func(op func() error) func() error {
		return func() error {
			for i := 0; i < framesPerRep; i++ {
				if err := op(); err != nil {
					return err
				}
			}
			return nil
		}
	}

	const admOps = 1 << 14
	adm := serve.NewAdmission(exec.NewMemBudget(1<<30), 0)

	// Plan compile of one 3-table spec on the initial layout, against an
	// empty plan cache each time and against a warm one.
	q3, err := session.FromSpec(sys.cat, tpch.NewInstance(tpch.Q3, sys.data, rand.New(rand.NewSource(probeSeed))).Spec())
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	compile := func(cache *planner.PlanCache) error {
		r := planner.NewRunner(ex, sys.model)
		r.BudgetBlocks = budgetBlocks
		r.Cache = cache
		_, err := r.CompileSpec(q3.Spec)
		return err
	}
	warm := planner.NewPlanCache(0)
	if err := compile(warm); err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	for _, p := range []struct {
		name  string
		unit  string
		units int // operations one repetition performs
		op    func() error
	}{
		{"exec.scan_ns_per_row", "ns/row", lineRows, func() error { return count(ex.TableScanOp(line, nil), lineRows) }},
		{"exec.filter_scan_ns_per_row", "ns/row", lineRows, func() error { return count(ex.TableScanOp(line, q6), -1) }},
		{"exec.join_ns_per_row", "ns/row", lineRows, join(ex)},
		{"exec.spill_join_ns_per_row", "ns/row", lineRows, join(newExec(buildBytes / 8))},
		{"exec.exchange_ns_per_row", "ns/row", lineRows, exchange},
		{"exec.groupby_ns_per_row", "ns/row", lineRows, func() error {
			return count(ex.GroupByOp(ex.TableScanOp(line, nil), groupBy), -1)
		}},
		{"tuple.frame_encode_ns_per_row", "ns/row", framesPerRep * frameRows, perFrame(func() error {
			frame = cols.AppendFrame(frame[:0])
			return nil
		})},
		{"tuple.frame_decode_ns_per_row", "ns/row", framesPerRep * frameRows, perFrame(func() error {
			got, _, err := scratch.Decode(frame)
			if err == nil && len(got) != frameRows {
				err = fmt.Errorf("decoded %d rows, want %d", len(got), frameRows)
			}
			return err
		})},
		{"value.hash_ns_per_row", "ns/row", framesPerRep * frameRows, perFrame(func() error {
			hashes = cols.Hash64Column(tpch.LOrderKey, hashes)
			return nil
		})},
		{"serve.admission_ns_per_op", "ns/op", admOps, func() error {
			for i := 0; i < admOps; i++ {
				if err := adm.Acquire(context.Background(), 64<<10); err != nil {
					return err
				}
				adm.Release(64 << 10)
			}
			return nil
		}},
		{"planner.compile_cold_us", "us", 1, func() error { return compile(planner.NewPlanCache(0)) }},
		{"planner.compile_cached_us", "us", 1, func() error { return compile(warm) }},
	} {
		ns, err := pc.repeat(p.units, p.op)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		if p.unit == "us" {
			ns /= 1e3
		}
		put(p.name, ns, p.unit)
	}
	return nil
}
