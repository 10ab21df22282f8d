package workload

import (
	"testing"

	"adaptdb/internal/predicate"
	"adaptdb/internal/value"
)

func q(join int, cols ...int) Query {
	var preds []predicate.Predicate
	for _, c := range cols {
		preds = append(preds, predicate.NewCmp(c, predicate.GT, value.NewInt(0)))
	}
	return Query{JoinAttr: join, Preds: preds}
}

func TestWindowFIFOEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 5; i++ {
		w.Add(q(i))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	qs := w.Queries()
	if qs[0].JoinAttr != 2 || qs[2].JoinAttr != 4 {
		t.Errorf("eviction order wrong: %+v", qs)
	}
	if w.Cap() != 3 {
		t.Errorf("Cap = %d", w.Cap())
	}
}

func TestWindowMinCapacity(t *testing.T) {
	w := NewWindow(0)
	w.Add(q(1))
	w.Add(q(2))
	if w.Len() != 1 {
		t.Errorf("capacity should clamp to 1, len = %d", w.Len())
	}
}

func TestWindowExactlyFullBoundary(t *testing.T) {
	// The eviction edge: a window at exactly Len == Cap must hold every
	// query (no premature eviction), and the very next Add must evict
	// exactly one — the oldest.
	w := NewWindow(4)
	for i := 0; i < 4; i++ {
		w.Add(q(i))
	}
	if w.Len() != 4 {
		t.Fatalf("exactly-full window Len = %d, want 4", w.Len())
	}
	if qs := w.Queries(); qs[0].JoinAttr != 0 || qs[3].JoinAttr != 3 {
		t.Fatalf("exactly-full window lost a query: %+v", qs)
	}
	w.Add(q(4))
	if w.Len() != 4 {
		t.Fatalf("over-full window Len = %d, want 4", w.Len())
	}
	qs := w.Queries()
	if qs[0].JoinAttr != 1 {
		t.Errorf("oldest query not evicted: head = %d", qs[0].JoinAttr)
	}
	if qs[3].JoinAttr != 4 {
		t.Errorf("newest query missing: tail = %d", qs[3].JoinAttr)
	}
	// n/|W| accounting straddling the boundary: exactly one of the five
	// adds was evicted, so counts must cover attrs 1..4 only.
	if w.CountJoinAttr(0) != 0 || w.CountJoinAttr(4) != 1 {
		t.Errorf("counts after boundary eviction: attr0=%d attr4=%d",
			w.CountJoinAttr(0), w.CountJoinAttr(4))
	}
}

func TestWindowDuplicateSignatures(t *testing.T) {
	// Identical queries (same join attribute, same predicate columns)
	// each occupy a window slot and each count toward n — the Fig. 11
	// fraction rises with repetition, which is the whole adaptation
	// signal. Dedup here would freeze the optimizer.
	w := NewWindow(3)
	for i := 0; i < 3; i++ {
		w.Add(q(7, 2))
	}
	if w.Len() != 3 {
		t.Fatalf("duplicates deduped: Len = %d, want 3", w.Len())
	}
	if n := w.CountJoinAttr(7); n != 3 {
		t.Errorf("CountJoinAttr(7) = %d, want 3 (duplicates each count)", n)
	}
	if m := w.PredColumns(); m[2] != 3 {
		t.Errorf("PredColumns[2] = %d, want 3 (deduped within, counted across)", m[2])
	}
	// One more duplicate at capacity: evicts a duplicate, counts hold.
	w.Add(q(7, 2))
	if w.Len() != 3 || w.CountJoinAttr(7) != 3 {
		t.Errorf("duplicate eviction broke counts: len=%d n=%d", w.Len(), w.CountJoinAttr(7))
	}
}

func TestWindowZeroAndNegativeCapacity(t *testing.T) {
	// Zero-length (and negative) windows clamp to capacity 1: the
	// optimizer always sees at least the current query, never a window
	// that silently drops everything.
	for _, capacity := range []int{0, -5} {
		w := NewWindow(capacity)
		if w.Cap() != 1 {
			t.Errorf("NewWindow(%d).Cap() = %d, want 1", capacity, w.Cap())
		}
		if w.Len() != 0 {
			t.Errorf("fresh window Len = %d, want 0", w.Len())
		}
		w.Add(q(1))
		w.Add(q(2))
		w.Add(q(3))
		if w.Len() != 1 {
			t.Errorf("clamped window Len = %d, want 1", w.Len())
		}
		if qs := w.Queries(); qs[0].JoinAttr != 3 {
			t.Errorf("clamped window should keep only the newest, got attr %d", qs[0].JoinAttr)
		}
		if w.CountJoinAttr(1) != 0 || w.CountJoinAttr(3) != 1 {
			t.Errorf("clamped window counts wrong")
		}
	}
}

func TestCountJoinAttr(t *testing.T) {
	w := NewWindow(10)
	w.Add(q(1))
	w.Add(q(1))
	w.Add(q(2))
	w.Add(q(-1))
	if w.CountJoinAttr(1) != 2 || w.CountJoinAttr(2) != 1 || w.CountJoinAttr(7) != 0 {
		t.Errorf("counts wrong: %d %d %d", w.CountJoinAttr(1), w.CountJoinAttr(2), w.CountJoinAttr(7))
	}
}

func TestJoinAttrs(t *testing.T) {
	w := NewWindow(10)
	w.Add(q(1))
	w.Add(q(1))
	w.Add(q(3))
	w.Add(q(-1)) // no join: excluded
	if n1, n3, n2 := w.CountJoinAttr(1), w.CountJoinAttr(3), w.CountJoinAttr(2); n1 != 2 || n3 != 1 || n2 != 0 {
		t.Errorf("join attribute counts: 1→%d 3→%d 2→%d, want 2, 1, 0", n1, n3, n2)
	}
}

func TestPredColumns(t *testing.T) {
	w := NewWindow(10)
	w.Add(q(-1, 2, 2, 5)) // column 2 deduped within one query
	w.Add(q(-1, 2))
	m := w.PredColumns()
	if m[2] != 2 || m[5] != 1 {
		t.Errorf("PredColumns = %v", m)
	}
}
