//go:build !race

package recycle

// Race reports a race build; see race_on.go.
const Race = false
