// Per-link network accounting, the Bala-Join refinement of the flat
// ExchangeRowFactor: once the fabric is real (internal/net), link
// capacities are heterogeneous — a loopback pair moves bytes orders of
// magnitude faster than a congested cross-rack pair — so the meter
// records measured bytes and wall time per (src, dst) pair and derives
// a relative weight per link. The planner scales the network share of
// its shuffle estimates by the mean observed weight; CostUnits prices
// every remote exchange row alike.
package cluster

import (
	"cmp"
	"slices"
)

// LinkKey identifies one directed node pair. Src == Dst is the
// loopback "link" of same-node deliveries (never weighted — local rows
// cost nothing, as before).
type LinkKey struct {
	Src, Dst int
}

// LinkStat accumulates the measured traffic of one link: rows and wire
// bytes shipped, and the sender-side wall nanoseconds spent moving
// them (TCP fabric only; the simulated fabric ships in memory and
// records no time).
type LinkStat struct {
	Rows  float64
	Bytes float64
	Nanos float64
}

// LinkStats maps directed links to their accumulated traffic.
type LinkStats map[LinkKey]LinkStat

// Add folds one transfer into the stats.
func (s LinkStats) Add(k LinkKey, rows, bytes int, nanos int64) {
	st := s[k]
	st.Rows += float64(rows)
	st.Bytes += float64(bytes)
	st.Nanos += float64(nanos)
	s[k] = st
}

// Merge folds another stats map into this one.
func (s LinkStats) Merge(o LinkStats) {
	for k, st := range o {
		cur := s[k]
		cur.Rows += st.Rows
		cur.Bytes += st.Bytes
		cur.Nanos += st.Nanos
		s[k] = cur
	}
}

// Clone returns an independent copy.
func (s LinkStats) Clone() LinkStats {
	out := make(LinkStats, len(s))
	for k, st := range s {
		out[k] = st
	}
	return out
}

// LinkWeights weighs each directed link relative to the cluster mean:
// 1.0 is an average link, 2.0 a link observed twice as slow per byte.
// The zero/nil map means "unmeasured — every link weighs 1". The
// planner reads only their Mean.
type LinkWeights map[LinkKey]float64

// Weights derives relative link weights from measured throughput:
// each link's ns-per-byte, normalized so the mean across measured
// remote links is 1. Links without timing data (or without traffic)
// get weight 1. The normalization keeps the CostModel calibration
// stable — installing weights changes the *relative* pricing of links,
// not the overall magnitude of simulated seconds. The mean sums in
// (src, dst) order, so every process derives the same bits from the
// same stats.
func (s LinkStats) Weights() LinkWeights {
	type nsb struct {
		k LinkKey
		v float64
	}
	var measured []nsb
	for _, k := range s.Keys() {
		st := s[k]
		if k.Src == k.Dst || st.Bytes <= 0 || st.Nanos <= 0 {
			continue
		}
		measured = append(measured, nsb{k, st.Nanos / st.Bytes})
	}
	if len(measured) == 0 {
		return nil
	}
	mean := 0.0
	for _, m := range measured {
		mean += m.v
	}
	mean /= float64(len(measured))
	if mean <= 0 {
		return nil
	}
	w := make(LinkWeights, len(measured))
	for _, m := range measured {
		w[m.k] = m.v / mean
	}
	return w
}

// Mean returns the average weight across the map (1 when empty) — the
// scalar the planner folds into the network share of its shuffle
// estimates, since at plan time it cannot know which links a shuffle
// will use. It sums in (src, dst) order: float addition does not
// associate, and map order would let two replicas of one plan price a
// tied join differently in the last bit.
func (w LinkWeights) Mean() float64 {
	if len(w) == 0 {
		return 1
	}
	sum := 0.0
	for _, k := range sortedLinks(w) {
		sum += w[k]
	}
	return sum / float64(len(w))
}

// Keys returns the links in deterministic (src, dst) order — for
// stable test output and reports, and for every float sum over them.
func (s LinkStats) Keys() []LinkKey { return sortedLinks(s) }

// sortedLinks returns m's links in (src, dst) order.
func sortedLinks[V any](m map[LinkKey]V) []LinkKey {
	keys := make([]LinkKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b LinkKey) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return keys
}

// AddExchangeAt meters rows flowing through an exchange with the
// directed link they crossed: rows delivered to the producing node
// itself are local (no network), rows delivered to any other node are
// remote and carry their approximate wire bytes. This is the single
// accounting point for exchange traffic; exec.Producer calls it.
// Per-link traffic is recorded for the next Weights derivation.
func (m *Meter) AddExchangeAt(src, dst int, rows, bytes int, remote bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if remote {
		m.c.ExchRemoteRows += float64(rows)
		m.c.ExchBytes += float64(bytes)
	} else {
		m.c.ExchLocalRows += float64(rows)
	}
	if m.links == nil {
		m.links = make(LinkStats)
	}
	m.links.Add(LinkKey{src, dst}, rows, bytes, 0)
}

// AddLinkNanos records sender-side wall time spent moving bytes over a
// link — the TCP fabric's measurement hook. The simulated fabric never
// calls it, so its links stay unweighted.
func (m *Meter) AddLinkNanos(src, dst int, bytes int, nanos int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.links == nil {
		m.links = make(LinkStats)
	}
	m.links.Add(LinkKey{src, dst}, 0, bytes, nanos)
}

// Links returns a copy of the accumulated per-link traffic.
func (m *Meter) Links() LinkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links.Clone()
}

// ResetLinks clears and returns the accumulated per-link traffic —
// sessions fold it into their long-lived link history after each
// query, the way Reset hands over the scalar counters.
func (m *Meter) ResetLinks() LinkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.links
	m.links = nil
	return s
}
