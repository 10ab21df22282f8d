package exec

// Every test in this package runs with recycled storage poisoned as it
// is returned (recycle.go): a view that outlives the join, group or load
// that owned it reads sentinels, and the oracle checks fail.
func init() { poisonRecycled = true }
