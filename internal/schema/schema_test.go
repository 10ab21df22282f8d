package schema

import (
	"testing"

	"adaptdb/internal/value"
)

func lineitemish() *Schema {
	return MustNew(
		Column{"orderkey", value.Int},
		Column{"partkey", value.Int},
		Column{"quantity", value.Float},
		Column{"shipdate", value.Date},
		Column{"shipmode", value.String},
	)
}

func TestNewValid(t *testing.T) {
	s := lineitemish()
	if s.NumCols() != 5 {
		t.Fatalf("NumCols = %d, want 5", s.NumCols())
	}
	if s.Index("partkey") != 1 {
		t.Errorf("Index(partkey) = %d, want 1", s.Index("partkey"))
	}
	if s.Index("nope") != -1 {
		t.Errorf("Index(nope) = %d, want -1", s.Index("nope"))
	}
	if s.Name(3) != "shipdate" || s.Kind(3) != value.Date {
		t.Errorf("Col 3 wrong: %v %v", s.Name(3), s.Kind(3))
	}
	if s.Name(4) != "shipmode" || s.Kind(4) != value.String {
		t.Errorf("Col 4 wrong: %v %v", s.Name(4), s.Kind(4))
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New(Column{"a", value.Int}, Column{"a", value.Float}); err == nil {
		t.Errorf("duplicate column accepted")
	}
}

func TestNewRejectsEmptyName(t *testing.T) {
	if _, err := New(Column{"", value.Int}); err == nil {
		t.Errorf("empty column name accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic on bad schema")
		}
	}()
	MustNew(Column{"x", value.Int}, Column{"x", value.Int})
}

func TestColsIsCopy(t *testing.T) {
	s := lineitemish()
	cols := s.Cols()
	cols[0].Name = "mutated"
	if s.Name(0) != "orderkey" {
		t.Errorf("Cols() exposed internal state")
	}
}

func TestString(t *testing.T) {
	s := MustNew(Column{"a", value.Int}, Column{"b", value.String})
	if got := s.String(); got != "(a:int, b:string)" {
		t.Errorf("String() = %q", got)
	}
}
