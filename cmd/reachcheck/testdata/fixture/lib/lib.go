// Package lib is reachcheck's fixture: functions the app links and
// functions it does not, on both receiver kinds and on generic code.
package lib

// T has methods on a value and on a pointer receiver.
type T struct{ n int }

func (t T) Val() int      { return t.n }
func (t *T) Ptr() int     { return t.n + 1 }
func (t T) DeadVal() int  { return -t.n }
func (t *T) DeadPtr() int { return -t.n - 1 }

// Max links only as its shape instantiation, Max[go.shape.int].
func Max[E int | float64](a, b E) E {
	if a > b {
		return a
	}
	return b
}

// DeadGeneric is never instantiated.
func DeadGeneric[E any](e E) E { return e }

// Stack's methods link as (*Stack[go.shape.string]).M.
type Stack[E any] struct{ items []E }

func (s *Stack[E]) Push(e E)  { s.items = append(s.items, e) }
func (s *Stack[E]) Drop() int { return len(s.items) }

// Pair has two type parameters.
type Pair[K comparable, V any] struct {
	K K
	V V
}

func (p Pair[K, V]) Key() K { return p.K }

func Dead() {}
