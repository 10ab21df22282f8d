// Package cluster provides the execution-cost model of §4.2 and the
// metering used by every experiment.
//
// The paper's model: query time is proportional to the number of blocks
// read; remote reads cost nearly the same as local ones (≈8% penalty,
// Fig. 7); a shuffle join charges CSJ = 3 units per block (read,
// partition+write, read again — eq. 1); a hyper-join charges 1 unit per
// build-side block plus CHyJ units per probe-side block where CHyJ
// emerges from how many times each probe block is actually fetched
// (eq. 2). Simulated wall time divides total units by the cluster's
// parallelism.
package cluster

import (
	"fmt"
	"sync"
)

// CostModel holds the constants of the §4.2 analysis.
type CostModel struct {
	// Nodes is the cluster size (the paper evaluates on 10).
	Nodes int
	// CSJ is the per-block shuffle factor; "set to 3 in our evaluation".
	CSJ float64
	// RemotePenalty multiplies remote block reads; the paper cites ≈8%
	// throughput loss for remote disk access.
	RemotePenalty float64
	// SecPerRow converts cost units (row reads) to simulated seconds on
	// one node. Calibrated once so reported magnitudes resemble the
	// paper's; all comparisons are within our own runs.
	SecPerRow float64
	// RepartWriteFactor is the extra per-row cost of writing a row to a
	// new partition during smooth repartitioning (read is charged by the
	// scan; the write costs this much more).
	RepartWriteFactor float64
	// IntermediateShuffleFactor is the per-row cost of shuffling a
	// materialized intermediate (§4.3's tempLO): projected, pipelined
	// rows crossing the network once, cheaper than the disk-based CSJ
	// repartitioning of base tables.
	IntermediateShuffleFactor float64
	// ExchangeRowFactor is the per-row cost of a row crossing the
	// simulated network through an exec.Exchange operator (remote rows
	// only — a row routed back to its own node never leaves the machine).
	// Like IntermediateShuffleFactor it prices a single pipelined network
	// hop, not the disk-based CSJ repartitioning of eq. 1.
	ExchangeRowFactor float64
	// SpillRowFactor is the per-row cost of a hash-join row demoted to a
	// disk run file under memory pressure: one sequential write plus the
	// second-pass read-back, both amortized over large frames. The
	// planner's shuffle estimates include this term when the executor
	// carries a memory budget, so a budget-starved shuffle build makes
	// the (never-spilling, group-bounded) hyper-join comparatively
	// cheaper — exactly the trade §4.1's grouping exists to win.
	SpillRowFactor float64
	// BloomSkipFrac is the fraction of a spilled partition's probe rows
	// the planner expects the join's Bloom filters to spare from the
	// spill round-trip (such rows cost nothing — they are dropped
	// before the run-file write). It discounts only the probe term of
	// the spill estimate; the build side always pays. Conservative by
	// default: on pure FK joins every probe row matches and the true
	// skip fraction is 0, while disjoint-key probes skip ~100%.
	BloomSkipFrac float64
}

// Default returns the model used across the experiments: 10 nodes,
// CSJ=3, 8% remote penalty.
func Default() CostModel {
	return CostModel{
		Nodes:                     10,
		CSJ:                       3.0,
		RemotePenalty:             1.08,
		SecPerRow:                 2e-3,
		RepartWriteFactor:         2.0,
		IntermediateShuffleFactor: 1.0,
		ExchangeRowFactor:         1.0,
		SpillRowFactor:            2.0,
		BloomSkipFrac:             0.25,
	}
}

// Meter accumulates I/O events for one query (or one experiment step).
// All methods are safe for concurrent use by executor tasks.
type Meter struct {
	mu sync.Mutex
	c  Counters
	// links accumulates per-(src,dst) traffic for Weights derivation;
	// lw prices remote exchange rows per link (nil = flat weight 1).
	// Both live outside Counters so Counters stays a comparable value
	// type (links.go).
	links LinkStats
	lw    LinkWeights
}

// Counters is a snapshot of metered work. Units are rows (a block read
// adds its row count), which normalizes partially filled blocks.
type Counters struct {
	// ScanLocal / ScanRemote are rows read by plain scans.
	ScanLocal, ScanRemote float64
	// ShuffleRows are rows that passed through a shuffle join (each is
	// charged CSJ units).
	ShuffleRows float64
	// BuildLocal / BuildRemote are hyper-join build-side rows.
	BuildLocal, BuildRemote float64
	// ProbeLocal / ProbeRemote are hyper-join probe-side rows, counting
	// re-reads (this is what makes CHyJ > 1).
	ProbeLocal, ProbeRemote float64
	// IntermediateRows are materialized intermediate rows shuffled to
	// align with the next join (§4.3).
	IntermediateRows float64
	// RepartRows are rows written into new partitions by the
	// repartitioning iterator.
	RepartRows float64
	// ExchLocalRows / ExchRemoteRows are rows that crossed an
	// exec.Exchange operator, split by whether the destination node is
	// the producing node (local: no network) or another node (remote:
	// one simulated network hop). A hyper-join over co-partitioned
	// tables moves nothing through exchanges, so both stay zero — the
	// §4.2 win the cost model exists to show.
	ExchLocalRows, ExchRemoteRows float64
	// ExchBytes approximates the wire bytes of the remote exchange rows.
	ExchBytes float64
	// ExchWeightedRows are the remote exchange rows scaled by the
	// measured weight of the link each crossed (links.go): with no link
	// weights installed it equals ExchRemoteRows exactly, so the flat
	// pricing is the zero-configuration behavior. CostUnits prefers it
	// over ExchRemoteRows when populated.
	ExchWeightedRows float64
	// SpillRows / SpillBytes are hash-join rows (and their run-file
	// bytes) demoted to disk under memory pressure — each such row is
	// written once and read back in the second probe pass, which
	// SpillRowFactor prices as a pair.
	SpillRows  float64
	SpillBytes float64
	// SpillSkippedRows are probe rows of spilled partitions whose spill
	// write the join's Bloom filter proved unnecessary (the key matches
	// no build row). They cost nothing — that is the point — so
	// CostUnits ignores them; the counter exists to make the saving
	// visible.
	SpillSkippedRows float64
	// ExchFilteredRows are probe-side rows a filtered hash exchange
	// dropped before they crossed it: the key was NULL, or the
	// destination join's build-key filter proved it matches nothing.
	// Like SpillSkippedRows they cost nothing and CostUnits ignores
	// them; the counter makes the saving visible.
	ExchFilteredRows float64

	// Bookkeeping for experiment reporting.
	BlocksScanned int // distinct block read events (scan+build)
	ProbeBlocks   int // probe-side block read events, with multiplicity
	ResultRows    int // rows produced by the query
}

// Add folds another snapshot into this one — the serving layer's
// aggregation path, where per-query counters roll up into per-tenant
// and service totals without touching a live Meter.
func (c *Counters) Add(o Counters) {
	c.ScanLocal += o.ScanLocal
	c.ScanRemote += o.ScanRemote
	c.ShuffleRows += o.ShuffleRows
	c.BuildLocal += o.BuildLocal
	c.BuildRemote += o.BuildRemote
	c.ProbeLocal += o.ProbeLocal
	c.ProbeRemote += o.ProbeRemote
	c.IntermediateRows += o.IntermediateRows
	c.RepartRows += o.RepartRows
	c.ExchLocalRows += o.ExchLocalRows
	c.ExchRemoteRows += o.ExchRemoteRows
	c.ExchBytes += o.ExchBytes
	c.ExchWeightedRows += o.ExchWeightedRows
	c.SpillRows += o.SpillRows
	c.SpillBytes += o.SpillBytes
	c.SpillSkippedRows += o.SpillSkippedRows
	c.ExchFilteredRows += o.ExchFilteredRows
	c.BlocksScanned += o.BlocksScanned
	c.ProbeBlocks += o.ProbeBlocks
	c.ResultRows += o.ResultRows
}

// AddScan meters a scanned block.
func (m *Meter) AddScan(rows int, local bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if local {
		m.c.ScanLocal += float64(rows)
	} else {
		m.c.ScanRemote += float64(rows)
	}
	m.c.BlocksScanned++
}

// AddShuffle meters rows flowing through a shuffle join.
func (m *Meter) AddShuffle(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ShuffleRows += float64(rows)
}

// AddIntermediateShuffle meters intermediate rows shuffled between
// joins.
func (m *Meter) AddIntermediateShuffle(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.IntermediateRows += float64(rows)
}

// AddBuild meters a hyper-join build-side block read.
func (m *Meter) AddBuild(rows int, local bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if local {
		m.c.BuildLocal += float64(rows)
	} else {
		m.c.BuildRemote += float64(rows)
	}
	m.c.BlocksScanned++
}

// AddProbe meters a hyper-join probe-side block read (with
// multiplicity).
func (m *Meter) AddProbe(rows int, local bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if local {
		m.c.ProbeLocal += float64(rows)
	} else {
		m.c.ProbeRemote += float64(rows)
	}
	m.c.ProbeBlocks++
}

// AddSpill meters hash-join rows written to disk run files under
// memory pressure, with their encoded bytes. The read-back of the
// second pass is not metered separately — SpillRowFactor prices the
// write/read pair per spilled row.
func (m *Meter) AddSpill(rows, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.SpillRows += float64(rows)
	m.c.SpillBytes += float64(bytes)
}

// AddSpillSkip meters probe rows whose spill write a Bloom filter
// elided — no I/O happened, so no cost accrues; the counter only
// surfaces the saving.
func (m *Meter) AddSpillSkip(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.SpillSkippedRows += float64(rows)
}

// AddExchFiltered meters probe rows a filtered exchange dropped
// before sending them — nothing moved, so no cost accrues.
func (m *Meter) AddExchFiltered(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ExchFilteredRows += float64(rows)
}

// AddRepartWrite meters rows written to new partitions.
func (m *Meter) AddRepartWrite(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.RepartRows += float64(rows)
}

// AddResultRows meters produced result rows.
func (m *Meter) AddResultRows(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ResultRows += n
}

// Snapshot returns the current counters.
func (m *Meter) Snapshot() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

// Reset zeroes the meter and returns the previous counters.
func (m *Meter) Reset() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.c
	m.c = Counters{}
	return c
}

// Merge folds another snapshot into the meter.
func (m *Meter) Merge(o Counters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ScanLocal += o.ScanLocal
	m.c.ScanRemote += o.ScanRemote
	m.c.ShuffleRows += o.ShuffleRows
	m.c.IntermediateRows += o.IntermediateRows
	m.c.BuildLocal += o.BuildLocal
	m.c.BuildRemote += o.BuildRemote
	m.c.ProbeLocal += o.ProbeLocal
	m.c.ProbeRemote += o.ProbeRemote
	m.c.RepartRows += o.RepartRows
	m.c.ExchLocalRows += o.ExchLocalRows
	m.c.ExchRemoteRows += o.ExchRemoteRows
	m.c.ExchBytes += o.ExchBytes
	m.c.ExchWeightedRows += o.ExchWeightedRows
	m.c.SpillRows += o.SpillRows
	m.c.SpillBytes += o.SpillBytes
	m.c.SpillSkippedRows += o.SpillSkippedRows
	m.c.ExchFilteredRows += o.ExchFilteredRows
	m.c.BlocksScanned += o.BlocksScanned
	m.c.ProbeBlocks += o.ProbeBlocks
	m.c.ResultRows += o.ResultRows
}

// CostUnits computes total row-units of work under the model:
//
//	scan + build + probe rows (remote ones scaled by RemotePenalty)
//	+ (CSJ − 1) × shuffled rows
//	+ RepartWriteFactor × repartition-written rows.
//
// A base-table row that is scanned and then shuffled costs 1 + (CSJ−1) =
// CSJ units in total, exactly eq. 1's CSJ·|b|: the scan meters the
// initial read, the shuffle adds the partition-write and re-read.
// Materialized intermediates that shuffle (§4.3) pay only the CSJ−1
// write+read, since they were never read from disk.
func (c Counters) CostUnits(m CostModel) float64 {
	u := c.ScanLocal + c.BuildLocal + c.ProbeLocal
	u += (c.ScanRemote + c.BuildRemote + c.ProbeRemote) * m.RemotePenalty
	u += c.ShuffleRows * (m.CSJ - 1)
	u += c.IntermediateRows * m.IntermediateShuffleFactor
	u += c.RepartRows * m.RepartWriteFactor
	// Weighted rows (per-link pricing, links.go) when populated; the
	// unweighted counter otherwise — snapshots built before per-link
	// accounting price exactly as they used to.
	exch := c.ExchWeightedRows
	if exch == 0 {
		exch = c.ExchRemoteRows
	}
	u += exch * m.ExchangeRowFactor
	u += c.SpillRows * m.SpillRowFactor
	return u
}

// SimSeconds converts cost units to simulated wall seconds, dividing by
// cluster parallelism.
func (c Counters) SimSeconds(m CostModel) float64 {
	n := m.Nodes
	if n < 1 {
		n = 1
	}
	return c.CostUnits(m) * m.SecPerRow / float64(n)
}

// String renders a compact counters summary.
func (c Counters) String() string {
	return fmt.Sprintf("scan=%.0f(+%.0fr) shuffle=%.0f build=%.0f(+%.0fr) probe=%.0f(+%.0fr) repart=%.0f exch=%.0f(+%.0fr,-%.0ffilt) spill=%.0f(-%.0fskip) blocks=%d probes=%d rows=%d",
		c.ScanLocal, c.ScanRemote, c.ShuffleRows, c.BuildLocal, c.BuildRemote,
		c.ProbeLocal, c.ProbeRemote, c.RepartRows, c.ExchLocalRows, c.ExchRemoteRows, c.ExchFilteredRows,
		c.SpillRows, c.SpillSkippedRows, c.BlocksScanned, c.ProbeBlocks, c.ResultRows)
}

// NewShards returns n independent meters plus a merge function that
// folds (and resets) every shard into dst exactly once per call. The
// per-node executors each own one shard, so hot-path metering never
// contends on a shared mutex; the session merges after each query's
// drain — "shard the meter per node and merge once".
func NewShards(n int) ([]*Meter, func(dst *Meter)) {
	if n < 1 {
		n = 1
	}
	shards := make([]*Meter, n)
	for i := range shards {
		shards[i] = &Meter{}
	}
	return shards, func(dst *Meter) {
		for _, s := range shards {
			dst.Merge(s.Reset())
		}
	}
}
