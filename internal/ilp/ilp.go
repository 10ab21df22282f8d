// Package ilp is a small branch-and-bound mixed-integer solver over the
// internal/lp simplex. It plays the role of GLPK in the paper's Fig. 17
// experiment: solving the hyper-join minimal-partitioning MIP (§4.1.2)
// exactly, slowly, as the quality baseline for the fast heuristics.
package ilp

import (
	"math"

	"adaptdb/internal/lp"
)

// Problem is a minimization MIP: the embedded LP plus integrality flags.
// Integer variables are assumed bounded (directly or via constraints);
// the hyper-join MIP's variables are all in [0,1] by construction.
type Problem struct {
	LP    lp.Problem
	IsInt []bool
}

// Options bounds the search.
type Options struct {
	// MaxNodes caps branch-and-bound nodes; 0 means a generous default.
	MaxNodes int
	// IntegralObjective declares that the objective is an integer at
	// every integer-feasible point, so a node is pruned on its LP bound
	// rounded up: a node whose relaxation cannot reach an integer below
	// the incumbent cannot improve it. Exact when the declaration holds.
	IntegralObjective bool
}

// Status reports the outcome.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal integer solution.
	Optimal Status = iota
	// Feasible: node budget exhausted; best incumbent returned.
	Feasible
	// Infeasible: no integer solution exists.
	Infeasible
	// NoSolution: node budget exhausted before any incumbent was found.
	NoSolution
	// Unbounded: the relaxation is unbounded below.
	Unbounded
)

// Result of a solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int
}

const intTol = 1e-6

// Solve runs depth-first branch and bound, branching on the most
// fractional integer variable; the floor branch is explored first.
func Solve(p Problem, opt Options) Result {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	type node struct {
		extra []lp.Constraint
	}
	stack := []node{{}}
	best := math.Inf(1)
	var bestX []float64
	nodes := 0
	sawInfeasibleRoot := false

	for len(stack) > 0 {
		if nodes >= maxNodes {
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sub := lp.Problem{
			NumVars:     p.LP.NumVars,
			Objective:   p.LP.Objective,
			Constraints: append(append([]lp.Constraint(nil), p.LP.Constraints...), nd.extra...),
		}
		sol := lp.Solve(&sub)
		switch sol.Status {
		case lp.Infeasible, lp.IterLimit:
			if nodes == 1 {
				sawInfeasibleRoot = true
			}
			continue
		case lp.Unbounded:
			if nodes == 1 {
				return Result{Status: Unbounded, Nodes: nodes}
			}
			continue
		}
		bound := sol.Objective
		if opt.IntegralObjective {
			bound = math.Ceil(bound - intTol)
		}
		if bound >= best-1e-9 {
			continue // bound
		}
		// Find most fractional integer variable.
		branch := -1
		worst := intTol
		for j, isInt := range p.IsInt {
			if !isInt {
				continue
			}
			f := sol.X[j] - math.Floor(sol.X[j])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branch = j
			}
		}
		if branch == -1 {
			// Integral solution.
			if sol.Objective < best {
				best = sol.Objective
				bestX = roundIntegers(sol.X, p.IsInt)
			}
			continue
		}
		fl := math.Floor(sol.X[branch])
		coefLo := make([]float64, p.LP.NumVars)
		coefLo[branch] = 1
		coefHi := make([]float64, p.LP.NumVars)
		coefHi[branch] = 1
		up := node{extra: append(append([]lp.Constraint(nil), nd.extra...),
			lp.Constraint{Coef: coefHi, Sense: lp.GE, RHS: fl + 1})}
		down := node{extra: append(append([]lp.Constraint(nil), nd.extra...),
			lp.Constraint{Coef: coefLo, Sense: lp.LE, RHS: fl})}
		// DFS: push up first so down (floor) is explored first.
		stack = append(stack, up, down)
	}

	switch {
	case bestX != nil && nodes < maxNodes:
		return Result{Status: Optimal, X: bestX, Objective: best, Nodes: nodes}
	case bestX != nil:
		return Result{Status: Feasible, X: bestX, Objective: best, Nodes: nodes}
	case nodes >= maxNodes:
		return Result{Status: NoSolution, Nodes: nodes}
	default:
		_ = sawInfeasibleRoot
		return Result{Status: Infeasible, Nodes: nodes}
	}
}

// roundIntegers snaps near-integral entries exactly, leaving continuous
// variables untouched.
func roundIntegers(x []float64, isInt []bool) []float64 {
	out := append([]float64(nil), x...)
	for j, ii := range isInt {
		if ii {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
