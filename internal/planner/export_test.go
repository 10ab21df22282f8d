package planner

import "adaptdb/internal/exec"

// HyperOps returns the compiled DAG's hyper-joins in Report order.
func (c *Compiled) HyperOps() []*exec.HyperJoinOp { return c.hypers }
