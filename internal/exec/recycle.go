// Hash-join memory recycling. A hash join's storage has an owner that
// outlives the join: the per-worker partition buffers, the sealed table
// (store, hashes, chain links, bucket directories), hyper-join group
// tables, second-pass loads, run-writer pending buffers and the probe
// and build workers' scratch vectors all come from the size-classed
// pools of internal/recycle and go back at the first point nothing can
// read them, so a join reuses what an earlier join (or a drained block)
// dropped instead of allocating it afresh and leaving it to the
// collector. Budget accounting is untouched: MemBudget charges row
// bytes as it always has, whatever capacity the storage behind them
// has.
//
// Returned storage belongs to the pool: nothing may keep a view into it
// (README, "Memory ownership"). Race builds, and this package's tests,
// poison storage as it is returned (recycle.Poison), so a view that
// outlives its owner reads sentinels and fails the oracle checks.
package exec

import (
	"bufio"
	"sync"

	"adaptdb/internal/recycle"
	"adaptdb/internal/tuple"
)

var (
	// hashPool holds key-hash vectors: build buffers' and sealed tables'
	// hashes, and the workers' Hash64Column scratch.
	hashPool recycle.Slices[uint64]
	// idxPool holds row-index vectors: chain links, bucket directories,
	// probe candidates and match pairs, selections and row charges.
	idxPool recycle.Slices[int32]
	// frames holds run-frame decode scratch. DecodeFrame reshapes a set
	// to every frame, so one pool serves frames of any shape and size.
	frames = sync.Pool{New: func() any { return tuple.NewColumns(0) }}
	// spillWriters holds the run writers' 64 KiB write buffers.
	spillWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}
)

// getFrame returns run-frame decode scratch; putFrame hands it back.
func getFrame() *tuple.Columns { return frames.Get().(*tuple.Columns) }

func putFrame(c *tuple.Columns) {
	c.Reset(c.NumCols())
	if recycle.Poison {
		recycle.PoisonStore(c)
	}
	frames.Put(c)
}
