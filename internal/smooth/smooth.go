// Package smooth implements AdaptDB's smooth repartitioning (§5.2,
// Figs. 10–11): when queries with a new join attribute arrive, create a
// new two-phase partitioning tree for that attribute and migrate data
// into it incrementally — 1/|W| of the table at creation, then after
// each query enough blocks that the new tree's share of the data tracks
// the attribute's share of the query window:
//
//	n ← |{q ∈ W ∧ q's join attribute = t}|
//	p ← n/|W| − |T′|/(|T|+|T′|)
//	if p > 0, repartition p percent of the data from T to T′
//
// Block choice is random ("by randomly selecting blocks and moving
// them"), appends ride HDFS semantics, and a drained old tree is
// removed. The fmin gate avoids building trees for rare queries.
//
// A Manager is invoked between the queries of a stream: the optimizer
// (and through it internal/session) calls Step once per query after the
// query has joined the table's window, so trees are created, blocks
// migrate, and drained trees are dropped while the stream runs — the
// migration I/O is metered into the triggering query's meter. All
// randomness (bucket selection, new-tree build seeds) comes from the
// caller-seeded *rand.Rand (NewWithRand), making session runs
// reproducible from a single seed.
package smooth

import (
	"math/rand"
	"sort"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/twophase"
	"adaptdb/internal/workload"
)

// Manager drives smooth repartitioning for one table.
type Manager struct {
	// Window is the table's query window (shared with the optimizer).
	Window *workload.Window
	// FMin is the minimum number of window queries with a new join
	// attribute before a tree is created for it (§5.2).
	FMin int
	rng  *rand.Rand
}

// New returns a manager with the paper's defaults: fmin = 1 (create on
// first sight; experiments override), window shared with caller, and a
// private RNG seeded from seed.
func New(w *workload.Window, seed int64) *Manager {
	return NewWithRand(w, rand.New(rand.NewSource(seed)))
}

// NewWithRand returns a manager drawing all randomness (bucket
// selection, new-tree build seeds) from the caller's seeded source, so
// a session run replays bit-identically from one seed. The manager
// owns rng after the call; nil falls back to a fixed default seed.
func NewWithRand(w *workload.Window, rng *rand.Rand) *Manager {
	m := &Manager{Window: w, FMin: 1, rng: rng}
	m.ensureRand()
	return m
}

// ensureRand guarantees a usable RNG even on a zero-value Manager, so
// struct-literal construction cannot panic mid-migration; the fallback
// seed is fixed for reproducibility.
func (m *Manager) ensureRand() {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(1))
	}
}

// StepResult reports what one smooth-repartitioning step did.
type StepResult struct {
	CreatedTree  int // index of the tree created this step, or -1
	MovedRows    int
	MovedBuckets int
	DroppedTrees []int
}

// Step runs the Fig. 11 algorithm for one incoming query against the
// table. The query must already have been added to the window by the
// caller.
func (m *Manager) Step(tbl *core.Table, q workload.Query, meter *cluster.Meter) (StepResult, error) {
	m.ensureRand()
	res := StepResult{CreatedTree: -1}
	t := q.JoinAttr
	if t < 0 {
		return res, nil
	}
	n := m.Window.CountJoinAttr(t)
	w := m.Window.Cap()
	total := 0
	for _, i := range tbl.LiveTrees() {
		total += tbl.RowsUnder(i)
	}
	if total == 0 {
		return res, nil
	}

	tIdx := tbl.TreeFor(t)
	if tIdx < 0 {
		// New join attribute: gate on fmin, then create the tree and move
		// fmin/|W| of the data.
		if n < m.FMin {
			return res, nil
		}
		// The new tree is as deep as the primary tree, with half its
		// levels on the join attribute (the default the paper evaluates
		// in Fig. 16 and uses everywhere else).
		depth := 0
		if p := tbl.PrimaryTree(); p >= 0 {
			depth = tbl.Trees[p].Tree.Depth()
		}
		if depth <= 0 {
			depth = 4
		}
		nt := twophase.Builder{
			Schema:     tbl.Schema,
			JoinAttr:   t,
			JoinLevels: max(depth/2, 1),
			TotalDepth: depth,
			Seed:       m.rng.Int63(),
		}.Build(tbl.SampleRows)
		tIdx = tbl.AddTree(nt)
		res.CreatedTree = tIdx
		target := float64(m.FMin) / float64(w)
		moved, buckets, err := m.moveFraction(tbl, tIdx, target, total, meter)
		res.MovedRows, res.MovedBuckets = moved, buckets
		if err != nil {
			return res, err
		}
	} else {
		// Existing tree: move p = n/|W| − share(T′) of the data.
		share := float64(tbl.RowsUnder(tIdx)) / float64(total)
		p := float64(n)/float64(w) - share
		if p > 0 {
			moved, buckets, err := m.moveFraction(tbl, tIdx, p, total, meter)
			res.MovedRows, res.MovedBuckets = moved, buckets
			if err != nil {
				return res, err
			}
		}
	}
	// Drop any tree fully drained by migration.
	for _, i := range tbl.LiveTrees() {
		if i != tIdx && tbl.RowsUnder(i) == 0 {
			if err := tbl.DropTree(i); err == nil {
				res.DroppedTrees = append(res.DroppedTrees, i)
			}
		}
	}
	return res, nil
}

// moveFraction migrates ≈ frac × total rows into tree toIdx, pulling
// randomly chosen buckets from the other trees, largest donors first.
func (m *Manager) moveFraction(tbl *core.Table, toIdx int, frac float64, total int, meter *cluster.Meter) (int, int, error) {
	budget := int(frac * float64(total))
	if budget <= 0 {
		return 0, 0, nil
	}
	movedRows, movedBuckets := 0, 0
	// Donors: all other live trees, largest first so the dominant old
	// tree drains before stragglers.
	donors := tbl.LiveTrees()
	sort.Slice(donors, func(a, b int) bool {
		return tbl.RowsUnder(donors[a]) > tbl.RowsUnder(donors[b])
	})
	for _, from := range donors {
		if from == toIdx || movedRows >= budget {
			continue
		}
		live := tbl.Trees[from].LiveBuckets()
		m.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		var pick []block.ID
		for _, b := range live {
			if movedRows >= budget {
				break
			}
			cnt, _ := tbl.Trees[from].Count(b)
			// Always move at least one bucket when under budget; stop when a
			// bucket would badly overshoot an almost-met budget.
			if movedRows > 0 && movedRows+cnt > budget+cnt/2 {
				continue
			}
			pick = append(pick, b)
			movedRows += cnt
		}
		if len(pick) == 0 {
			continue
		}
		if err := tbl.MoveBuckets(from, toIdx, pick, meter); err != nil {
			return movedRows, movedBuckets, err
		}
		movedBuckets += len(pick)
	}
	return movedRows, movedBuckets, nil
}
