//go:build race

package exec

// raceEnabled: a race build poisons recycled storage (poisonRecycled),
// and since sync.Pool drops a share of its Puts there on purpose, the
// tests' pins on pooled allocation counts skip.
const raceEnabled = true
