package planner

import "adaptdb/internal/exec"

// HyperOps returns the compiled DAG's hyper-joins in Report order, each
// as its first node fragment: every fragment of a join runs the same
// plan.
func (c *Compiled) HyperOps() []*exec.HyperJoinOp {
	out := make([]*exec.HyperJoinOp, len(c.hypers))
	for i, frags := range c.hypers {
		out[i] = frags[0]
	}
	return out
}

// HyperFragments returns each hyper or combination join's node
// fragments, in Report order.
func (c *Compiled) HyperFragments() [][]*exec.HyperJoinOp { return c.hypers }
