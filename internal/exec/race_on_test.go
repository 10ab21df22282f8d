//go:build race

package exec

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts on purpose, so pins on pooled-batch allocation counts skip.
const raceEnabled = true
