package net

import "adaptdb/internal/exec"

// FrameBufsOut exposes the count of pooled wire buffers checked out to
// the external test package's leak checks.
func FrameBufsOut() int64 { return frameBufsOut.Load() }

// Pumps returns how many producers a process's fabric view registered
// for the plan compiled against it.
func Pumps(f exec.Fabric) int { return len(f.(*netFabric).pumps) }

// waitPumps waits for every pump of f and returns its attempt's first
// failure, which each pump error sets: what worker.attemptRun reads.
func waitPumps(f *netFabric) error {
	f.Wait()
	return f.at.failure()
}
