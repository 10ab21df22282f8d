// Residual-join filters, projection, and the empty stream — the small
// relational operators the spec compiler wraps around a lowered join
// tree: WhereColsEq applies the join-graph edges the ordered tree did
// not consume (cyclic edges, extra attribute pairs of multi-attribute
// edges) by narrowing a batch's selection, Project restores declaration
// column order after greedy ordering permuted the tables by gathering
// whole vectors, and Empty is the zero-cost plan for queries zone maps
// prove produce nothing.
package exec

// WhereColsEq filters rows where every listed column pair is equal
// under join-key semantics (NULL never equals anything, matching the
// hash joins) — the residual form of a join-graph edge. pairs index the
// child's output columns.
func WhereColsEq(child Operator, pairs [][2]int) Operator {
	if len(pairs) == 0 {
		return child
	}
	return &colsEqOp{child: child, pairs: pairs}
}

type colsEqOp struct {
	child Operator
	pairs [][2]int
}

func (f *colsEqOp) Open() error { return f.child.Open() }

func (f *colsEqOp) Next() (*Batch, error) {
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		// Refine the selection vector in place, reading cells straight
		// from the vectors.
		cb := in.Cols()
		cb.FilterSel(func(i int) bool {
			for _, p := range f.pairs {
				if !joinKeyEqual(cb.Value(p[0], i), cb.Value(p[1], i)) {
					return false
				}
			}
			return true
		})
		if cb.Len() > 0 {
			return in, nil
		}
		in.Release()
	}
}

func (f *colsEqOp) Close() error { return f.child.Close() }

// Project emits only the listed child columns, in the listed order,
// gathering whole vectors through the child batch's selection.
func Project(child Operator, cols []int) Operator {
	return &projectOp{child: child, cols: cols}
}

type projectOp struct {
	child  Operator
	cols   []int
	idxbuf []int32
}

func (p *projectOp) Open() error { return p.child.Open() }

func (p *projectOp) Next() (*Batch, error) {
	for {
		in, err := p.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		if in.Len() == 0 {
			in.Release()
			continue
		}
		cb := in.Cols()
		idxs := cb.Sel()
		if idxs == nil {
			n := cb.Len()
			if cap(p.idxbuf) < n {
				p.idxbuf = make([]int32, n)
			}
			idxs = p.idxbuf[:n]
			for i := range idxs {
				idxs[i] = int32(i)
			}
		}
		out := NewColBatch(len(p.cols))
		if out.pooled && len(idxs) > DefaultBatchSize {
			out.pooled = false
		}
		for ci, c := range p.cols {
			out.cols.AppendColumnGather(ci, cb, c, idxs)
		}
		out.cols.AddRows(len(idxs))
		in.Release()
		return out, nil
	}
}

func (p *projectOp) Close() error { return p.child.Close() }

// Empty is the stream with no batches — the compiled form of a plan
// zone maps prove empty.
func Empty() Operator { return emptyOp{} }

type emptyOp struct{}

func (emptyOp) Open() error           { return nil }
func (emptyOp) Next() (*Batch, error) { return nil, nil }
func (emptyOp) Close() error          { return nil }
