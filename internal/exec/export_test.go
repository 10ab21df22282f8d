package exec

import "adaptdb/internal/recycle"

// Every test in this package runs with recycled storage poisoned as it
// is returned (internal/recycle): a view that outlives the join, group
// or load that owned it reads sentinels, and the oracle checks fail.
func init() { recycle.Poison = true }
