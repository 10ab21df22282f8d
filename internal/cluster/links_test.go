package cluster

import (
	"math"
	"testing"
)

// TestLinkWeightsDerivation: weights come out normalized to mean 1,
// proportional to measured ns-per-byte, and loopback/untimed links are
// excluded.
func TestLinkWeightsDerivation(t *testing.T) {
	s := make(LinkStats)
	// Link 0→1: 1000 bytes in 1000 ns (1 ns/B). Link 1→0: 1000 bytes in
	// 3000 ns (3 ns/B). Loopback and untimed traffic must not skew it.
	s.Add(LinkKey{0, 1}, 10, 1000, 1000)
	s.Add(LinkKey{1, 0}, 10, 1000, 3000)
	s.Add(LinkKey{2, 2}, 99, 1<<20, 1<<30) // loopback: ignored
	s.Add(LinkKey{0, 2}, 10, 500, 0)       // no timing: ignored

	w := s.Weights()
	if got := w[LinkKey{0, 1}]; !almost(got, 0.5) {
		t.Errorf("fast link weight = %v, want 0.5", got)
	}
	if got := w[LinkKey{1, 0}]; !almost(got, 1.5) {
		t.Errorf("slow link weight = %v, want 1.5", got)
	}
	if got, ok := w[LinkKey{0, 2}]; ok {
		t.Errorf("unmeasured link weighed %v, want no weight", got)
	}
	if got := w.Mean(); !almost(got, 1.0) {
		t.Errorf("mean weight = %v, want 1", got)
	}
}

// orderValues are weights whose float sum depends on the order they
// are added in: 1e16 absorbs a lone 1 but not a 2.
var orderValues = []float64{1e16, 1, 1, -1e16, 0.1, 0.2, 0.3}

// TestLinkMeanIsOrderFree: Mean and Weights sum in (src, dst) order,
// so 100 freshly built maps of the same links give bit-identical
// results even though other orders of the same values give other sums.
func TestLinkMeanIsOrderFree(t *testing.T) {
	sum := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	rev := append([]float64(nil), orderValues...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if sum(orderValues) == sum(rev) {
		t.Fatalf("the values sum alike in both orders (%v); they test nothing", sum(rev))
	}
	// The sorted-key order of the links below is the slice order.
	link := func(i int) LinkKey { return LinkKey{Src: i / 3, Dst: i%3 + 10} }
	want := math.Float64bits(sum(orderValues) / float64(len(orderValues)))
	var wantW uint64
	for n := 0; n < 100; n++ {
		w := make(LinkWeights)
		s := make(LinkStats)
		for i, v := range orderValues {
			w[link(i)] = v
			// ns/B values that, like orderValues, sum differently by order.
			s.Add(link(i), 1, 1000, int64(1000*(i%3+1))+int64(i))
		}
		if got := math.Float64bits(w.Mean()); got != want {
			t.Fatalf("map %d: Mean bits %#x, want %#x", n, got, want)
		}
		got := math.Float64bits(s.Weights().Mean())
		if n == 0 {
			wantW = got
		} else if got != wantW {
			t.Fatalf("map %d: Weights().Mean bits %#x, want %#x", n, got, wantW)
		}
	}
}

// TestLinkWeightsEmpty: nil/empty stats derive nil weights, whose mean
// is 1 — the flat pre-link behavior.
func TestLinkWeightsEmpty(t *testing.T) {
	var s LinkStats
	if w := s.Weights(); w != nil {
		t.Errorf("empty stats derived weights %v", w)
	}
	var w LinkWeights
	if got := w.Mean(); got != 1 {
		t.Errorf("nil weights Mean = %v, want 1", got)
	}
}

// TestAddExchangeAtFlat: AddExchangeAt splits rows into remote and
// local, and CostUnits prices every remote row at ExchangeRowFactor
// whichever link it crossed; local rows cost nothing.
func TestAddExchangeAtFlat(t *testing.T) {
	m := &Meter{}
	m.AddExchangeAt(0, 1, 100, 4000, true)
	m.AddExchangeAt(2, 3, 20, 800, true)
	m.AddExchangeAt(1, 1, 50, 0, false)
	c := m.Snapshot()
	if c.ExchRemoteRows != 120 || c.ExchLocalRows != 50 {
		t.Fatalf("rows: remote=%v local=%v", c.ExchRemoteRows, c.ExchLocalRows)
	}
	model := Default()
	if got, want := c.CostUnits(model), c.ExchRemoteRows*model.ExchangeRowFactor; got != want {
		t.Errorf("CostUnits = %v, want %v", got, want)
	}
}

// TestLinkStatsMeterRoundTrip: the meter accumulates per-link traffic
// (AddExchangeAt rows/bytes + AddLinkNanos timing), hands it over via
// ResetLinks, and LinkStats.Merge folds histories together.
func TestLinkStatsMeterRoundTrip(t *testing.T) {
	m := &Meter{}
	m.AddExchangeAt(0, 1, 10, 400, true)
	m.AddLinkNanos(0, 1, 0, 8000)
	s := m.ResetLinks()
	if st := s[LinkKey{0, 1}]; st.Rows != 10 || st.Bytes != 400 || st.Nanos != 8000 {
		t.Fatalf("link stat = %+v", st)
	}
	if again := m.ResetLinks(); len(again) != 0 {
		t.Fatalf("ResetLinks did not clear: %v", again)
	}

	hist := make(LinkStats)
	hist.Merge(s)
	hist.Merge(s)
	if st := hist[LinkKey{0, 1}]; st.Rows != 20 || st.Nanos != 16000 {
		t.Fatalf("merged stat = %+v", st)
	}
	keys := hist.Keys()
	if len(keys) != 1 || keys[0] != (LinkKey{0, 1}) {
		t.Fatalf("keys = %v", keys)
	}
}
