// Command app links part of package lib.
package main

import (
	"os"

	"fixture/lib"
)

func main() {
	t := lib.T{}
	var s lib.Stack[string]
	s.Push("x")
	os.Exit(t.Val() + t.Ptr() + lib.Max(1, 2) + lib.Pair[int, string]{K: 3}.Key() + helper())
}

func helper() int { return 0 }

func unused() {}
