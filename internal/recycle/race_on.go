//go:build race

package recycle

// Race: a race build poisons returned storage (Poison), and since
// sync.Pool drops a share of its Puts there on purpose, tests' pins on
// pooled allocation counts skip.
const Race = true
