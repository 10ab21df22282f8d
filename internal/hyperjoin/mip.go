package hyperjoin

import (
	"adaptdb/internal/ilp"
	"adaptdb/internal/lp"
)

// BuildMIP encodes Problem 1 as the §4.1.2 mixed-integer program:
//
//	variables  x_{i,k} ∈ {0,1}  (block i of R in partition k; i<n, k<c)
//	           y_{j,k} ∈ [0,1]  (bit j of ṽ(p_k); j<m)
//	minimize   Σ_{j,k} y_{j,k}
//	s.t.       Σ_i x_{i,k} ≤ B            ∀k   (memory budget)
//	           Σ_k x_{i,k} = 1            ∀i   (each block assigned once)
//	           y_{j,k} ≥ x_{i,k}          ∀i,k, ∀j with v_ij = 1
//
// Only x needs integrality: once x is 0/1, minimization drives each y to
// max_i x, which is already 0/1. c = ⌈n/B⌉ as in the paper.
func BuildMIP(V []BitVec, B int) (ilp.Problem, int, int) {
	n := len(V)
	if B < 1 {
		B = 1
	}
	c := (n + B - 1) / B
	m := 0
	if n > 0 {
		m = len(V[0]) * 64
	}
	nx := n * c
	ny := m * c
	nv := nx + ny
	xIdx := func(i, k int) int { return i*c + k }
	yIdx := func(j, k int) int { return nx + j*c + k }

	obj := make([]float64, nv)
	for j := 0; j < m; j++ {
		for k := 0; k < c; k++ {
			obj[yIdx(j, k)] = 1
		}
	}

	var cons []lp.Constraint
	// Budget per partition.
	for k := 0; k < c; k++ {
		coef := make([]float64, nv)
		for i := 0; i < n; i++ {
			coef[xIdx(i, k)] = 1
		}
		cons = append(cons, lp.Constraint{Coef: coef, Sense: lp.LE, RHS: float64(B)})
	}
	// Assignment.
	for i := 0; i < n; i++ {
		coef := make([]float64, nv)
		for k := 0; k < c; k++ {
			coef[xIdx(i, k)] = 1
		}
		cons = append(cons, lp.Constraint{Coef: coef, Sense: lp.EQ, RHS: 1})
	}
	// Linking: x_{i,k} - y_{j,k} ≤ 0 for each overlap (i, j).
	for i := 0; i < n; i++ {
		for _, j := range V[i].Ones() {
			for k := 0; k < c; k++ {
				coef := make([]float64, nv)
				coef[xIdx(i, k)] = 1
				coef[yIdx(j, k)] = -1
				cons = append(cons, lp.Constraint{Coef: coef, Sense: lp.LE, RHS: 0})
			}
		}
	}
	isInt := make([]bool, nv)
	for v := 0; v < nx; v++ {
		isInt[v] = true
	}
	return ilp.Problem{
		LP:    lp.Problem{NumVars: nv, Objective: obj, Constraints: cons},
		IsInt: isInt,
	}, n, c
}

// MIPResult is the decoded outcome of SolveMIP.
type MIPResult struct {
	Grouping Grouping
	Cost     int
	Optimal  bool
	Nodes    int
}

// breakSymmetry adds the rows x_{i,k} = 0 for k > i to a BuildMIP
// program of n blocks and c partitions. They tighten §4.1.2 without
// changing its optimum: the c partitions are interchangeable, and
// numbering them in order of their first block puts block i in a
// partition k ≤ i, so every grouping keeps one labelling while the c!
// relabellings of it leave the search.
func breakSymmetry(prob *ilp.Problem, n, c int) {
	for i := 0; i < n; i++ {
		for k := i + 1; k < c; k++ {
			coef := make([]float64, prob.LP.NumVars)
			coef[i*c+k] = 1
			prob.LP.Constraints = append(prob.LP.Constraints, lp.Constraint{Coef: coef, Sense: lp.EQ, RHS: 0})
		}
	}
}

// SolveMIP builds and solves the §4.1.2 program with the branch-and-
// bound MIP solver, tightened by breakSymmetry and by pruning on the
// rounded-up LP bound (the objective counts y's, which are 0/1 at every
// integral x), decoding the assignment back into a Grouping. It is the
// slow-but-optimal baseline of Fig. 17; use Exact for the faster
// specialized search and BottomUp for production.
func SolveMIP(V []BitVec, B int, opt ilp.Options) MIPResult {
	n := len(V)
	if n == 0 {
		return MIPResult{Optimal: true}
	}
	prob, _, c := BuildMIP(V, B)
	breakSymmetry(&prob, n, c)
	opt.IntegralObjective = true
	res := ilp.Solve(prob, opt)
	if res.X == nil {
		return MIPResult{Optimal: false, Nodes: res.Nodes}
	}
	groups := make(Grouping, c)
	for i := 0; i < n; i++ {
		for k := 0; k < c; k++ {
			if res.X[i*c+k] > 0.5 {
				groups[k] = append(groups[k], i)
				break
			}
		}
	}
	var out Grouping
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return MIPResult{
		Grouping: out,
		Cost:     Cost(out, V),
		Optimal:  res.Status == ilp.Optimal,
		Nodes:    res.Nodes,
	}
}
