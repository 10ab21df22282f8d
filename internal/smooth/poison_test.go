package smooth

import "adaptdb/internal/recycle"

// Every test of this package runs with recycled storage poisoned as it
// is returned: a view of a block a migration drained, or of storage a
// growing block moved out of, reads sentinels, and the checks fail.
func init() { recycle.Poison = true }
