package exec

import (
	"errors"
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

func intRows(vals ...int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		out[i] = tuple.Tuple{value.NewInt(v)}
	}
	return out
}

func TestInstrumentCountsAndFiresOnce(t *testing.T) {
	rows := intRows(1, 2, 3, 4, 5)
	fired := 0
	var got OpStats
	op := Instrument("src", NewSource(rows), func(st OpStats) { fired++; got = st })
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("rows = %d, want 5", len(out))
	}
	if fired != 1 {
		t.Fatalf("onDone fired %d times, want 1", fired)
	}
	if got.Rows != 5 || got.Batches != 1 || got.Label != "src" {
		t.Fatalf("stats = %+v", got)
	}
	// Close after drain must not re-fire.
	if fired != 1 {
		t.Fatalf("onDone re-fired at Close")
	}
	if st := op.Stats(); st.Rows != 5 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestInstrumentFiresOnEarlyClose(t *testing.T) {
	fired := 0
	op := Instrument("src", NewSource(intRows(1, 2, 3)), func(OpStats) { fired++ })
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	// Close without draining: the hook must still fire exactly once.
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("onDone fired %d times on early close, want 1", fired)
	}
}

func TestConcatOrderAndLifecycle(t *testing.T) {
	a := NewSource(intRows(1, 2))
	b := NewSource(nil) // empty child in the middle
	c := NewSource(intRows(3))
	rows, err := Collect(Concat(a, b, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, want := range []int64{1, 2, 3} {
		if rows[i][0].Int64() != want {
			t.Fatalf("row %d = %v, want %d", i, rows[i][0], want)
		}
	}
}

func TestConcatEmptyAndSingle(t *testing.T) {
	rows, err := Collect(Concat())
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty concat: rows=%d err=%v", len(rows), err)
	}
	src := NewSource(intRows(7))
	if op := Concat(src); op != Operator(src) {
		t.Fatalf("single-child Concat should return the child itself")
	}
}

type errOp struct{ openErr, nextErr error }

func (e *errOp) Open() error { return e.openErr }
func (e *errOp) Next() (*Batch, error) {
	if e.nextErr != nil {
		return nil, e.nextErr
	}
	return nil, nil
}
func (e *errOp) Close() error { return nil }

func TestConcatPropagatesChildErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Collect(Concat(NewSource(intRows(1)), &errOp{openErr: boom})); !errors.Is(err, boom) {
		t.Fatalf("open error not propagated: %v", err)
	}
	if _, err := Collect(Concat(&errOp{nextErr: boom}, NewSource(intRows(1)))); !errors.Is(err, boom) {
		t.Fatalf("next error not propagated: %v", err)
	}
}
