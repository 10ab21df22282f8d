package net

// FrameBufsOut exposes the count of pooled wire buffers checked out to
// the external test package's leak checks.
func FrameBufsOut() int64 { return frameBufsOut.Load() }
