// Package schema describes table layouts: ordered, typed columns with
// name-based lookup. Schemas are immutable after construction and shared
// freely between blocks, partitioning trees and the executor.
package schema

import (
	"fmt"
	"strings"

	"adaptdb/internal/value"
)

// Column is a single typed column.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns with O(1) name lookup.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// New builds a schema from the given columns. Duplicate or empty names
// are rejected because partitioning trees address columns by name when
// serialized.
func New(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustNew is New for statically known schemas; it panics on error.
func MustNew(cols ...Column) *Schema {
	s, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Cols returns a copy of the column list.
func (s *Schema) Cols() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Name returns the i-th column name.
func (s *Schema) Name(i int) string { return s.cols[i].Name }

// Kind returns the i-th column kind.
func (s *Schema) Kind(i int) value.Kind { return s.cols[i].Kind }

// String renders "name:kind, ..." for logs.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
