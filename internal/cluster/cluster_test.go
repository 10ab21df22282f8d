package cluster

import (
	"math"
	"sync"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDefaultModel(t *testing.T) {
	m := Default()
	if m.Nodes != 10 || m.CSJ != 3.0 {
		t.Errorf("Default model should match the paper: %+v", m)
	}
	if m.RemotePenalty < 1.0 || m.RemotePenalty > 1.2 {
		t.Errorf("remote penalty should be ≈8%%: %v", m.RemotePenalty)
	}
}

func TestMeterAccumulation(t *testing.T) {
	var m Meter
	m.AddScan(100, true)
	m.AddScan(50, false)
	m.AddShuffle(30)
	m.AddBuild(20, true)
	m.AddProbe(10, false)
	m.AddRepartWrite(5)
	m.AddResultRows(7)
	c := m.Snapshot()
	if c.ScanLocal != 100 || c.ScanRemote != 50 {
		t.Errorf("scan counters: %+v", c)
	}
	if c.ShuffleRows != 30 || c.BuildLocal != 20 || c.ProbeRemote != 10 || c.RepartRows != 5 {
		t.Errorf("counters: %+v", c)
	}
	if c.BlocksScanned != 3 { // 2 scans + 1 build
		t.Errorf("BlocksScanned = %d, want 3", c.BlocksScanned)
	}
	if c.ProbeBlocks != 1 || c.ResultRows != 7 {
		t.Errorf("probe/result: %+v", c)
	}
}

func TestCostUnitsFormula(t *testing.T) {
	model := CostModel{Nodes: 10, CSJ: 3, RemotePenalty: 1.08, SecPerRow: 1e-3, RepartWriteFactor: 2}
	c := Counters{
		ScanLocal: 100, ScanRemote: 100,
		ShuffleRows: 10,
		BuildLocal:  50, ProbeRemote: 25,
		RepartRows: 4,
	}
	want := 100 + 50.0 + // local
		(100+25)*1.08 + // remote
		10*(3.0-1) + // shuffle write+reread on top of the scan
		4*2.0 // repartition writes
	if got := c.CostUnits(model); !almost(got, want) {
		t.Errorf("CostUnits = %v, want %v", got, want)
	}
}

func TestSimSecondsDividesByNodes(t *testing.T) {
	model := CostModel{Nodes: 10, CSJ: 3, RemotePenalty: 1, SecPerRow: 0.01, RepartWriteFactor: 2}
	c := Counters{ScanLocal: 1000}
	if got := c.SimSeconds(model); !almost(got, 1.0) {
		t.Errorf("SimSeconds = %v, want 1.0", got)
	}
	model.Nodes = 0 // degenerate: treated as 1
	if got := c.SimSeconds(model); !almost(got, 10.0) {
		t.Errorf("SimSeconds with 0 nodes = %v, want 10", got)
	}
}

func TestShuffleCostsCSJTimesScan(t *testing.T) {
	// The motivating observation (Fig. 1): rows that are scanned and then
	// shuffled cost CSJ× a plain scan in total (eq. 1).
	model := Default()
	scan := Counters{ScanLocal: 1000}
	scanAndShuffle := Counters{ScanLocal: 1000, ShuffleRows: 1000}
	ratio := scanAndShuffle.CostUnits(model) / scan.CostUnits(model)
	if !almost(ratio, model.CSJ) {
		t.Errorf("(scan+shuffle)/scan cost ratio = %v, want %v", ratio, model.CSJ)
	}
}

func TestResetAndMerge(t *testing.T) {
	var m Meter
	m.AddScan(10, true)
	old := m.Reset()
	if old.ScanLocal != 10 {
		t.Errorf("Reset returned %+v", old)
	}
	if m.Snapshot().ScanLocal != 0 {
		t.Errorf("meter not zeroed")
	}
	m.AddScan(5, false)
	m.Merge(old)
	c := m.Snapshot()
	if c.ScanLocal != 10 || c.ScanRemote != 5 {
		t.Errorf("Merge wrong: %+v", c)
	}
}

func TestMergeAllFields(t *testing.T) {
	var m Meter
	src := Counters{
		ScanLocal: 1, ScanRemote: 2, ShuffleRows: 3,
		BuildLocal: 4, BuildRemote: 5, ProbeLocal: 6, ProbeRemote: 7,
		RepartRows: 8, BlocksScanned: 9, ProbeBlocks: 10, ResultRows: 11,
	}
	m.Merge(src)
	m.Merge(src)
	c := m.Snapshot()
	if c.ScanLocal != 2 || c.ScanRemote != 4 || c.ShuffleRows != 6 ||
		c.BuildLocal != 8 || c.BuildRemote != 10 || c.ProbeLocal != 12 ||
		c.ProbeRemote != 14 || c.RepartRows != 16 || c.BlocksScanned != 18 ||
		c.ProbeBlocks != 20 || c.ResultRows != 22 {
		t.Errorf("double merge wrong: %+v", c)
	}
}

func TestMeterConcurrentSafety(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.AddScan(1, true)
				m.AddProbe(1, false)
			}
		}()
	}
	wg.Wait()
	c := m.Snapshot()
	if c.ScanLocal != 8000 || c.ProbeRemote != 8000 {
		t.Errorf("lost updates: %+v", c)
	}
}

// TestMeterMergeSnapshotUnderContention is the audit demanded by the
// per-node executors: probe workers hammer Add* methods on shards while
// another goroutine Merges shard snapshots into an aggregate and a
// third keeps Snapshotting it. Run under -race (CI does), this proves
// Merge and Snapshot are safe against concurrent mutation and that the
// shard-then-merge-once scheme loses no updates.
func TestMeterMergeSnapshotUnderContention(t *testing.T) {
	const shards, rounds = 4, 500
	ms, flush := NewShards(shards)
	var agg Meter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(m *Meter) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				m.AddScan(1, j%2 == 0)
				m.AddExchangeAt(0, 1, 2, 64, true)
				m.AddShuffle(1)
			}
		}(ms[i])
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = agg.Snapshot()
				flush(&agg) // interleaved merges must never lose rows
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	flush(&agg)
	c := agg.Snapshot()
	if got := c.ScanLocal + c.ScanRemote; got != shards*rounds {
		t.Errorf("scan rows lost under contention: got %v want %d", got, shards*rounds)
	}
	if c.ExchRemoteRows != shards*rounds*2 {
		t.Errorf("exchange rows lost: got %v want %d", c.ExchRemoteRows, shards*rounds*2)
	}
	if c.ExchBytes != shards*rounds*64 {
		t.Errorf("exchange bytes lost: got %v want %d", c.ExchBytes, shards*rounds*64)
	}
}

// TestExchangeCostUnits: remote exchange rows are priced by
// ExchangeRowFactor; local ones are free.
func TestExchangeCostUnits(t *testing.T) {
	m := Default()
	local := Counters{ExchLocalRows: 1000}
	if got := local.CostUnits(m); got != 0 {
		t.Errorf("local exchange rows should be free, cost %v", got)
	}
	remote := Counters{ExchRemoteRows: 1000}
	if got := remote.CostUnits(m); got != 1000*m.ExchangeRowFactor {
		t.Errorf("remote exchange cost %v, want %v", got, 1000*m.ExchangeRowFactor)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{ScanLocal: 1}
	if c.String() == "" {
		t.Errorf("String should render something")
	}
}

func TestRemotePenaltyMatchesFig7Shape(t *testing.T) {
	// Fig. 7: a job at 27% locality is only ≈18% slower than at 100%.
	// With our 1.08 penalty the slowdown is bounded well under that.
	model := Default()
	full := Counters{ScanLocal: 1000}
	low := Counters{ScanLocal: 270, ScanRemote: 730}
	slowdown := low.SimSeconds(model) / full.SimSeconds(model)
	if slowdown > 1.18 {
		t.Errorf("27%% locality slowdown %.3f exceeds the paper's 18%%", slowdown)
	}
	if slowdown <= 1.0 {
		t.Errorf("remote reads should cost something: %.3f", slowdown)
	}
}
