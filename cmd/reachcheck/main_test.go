package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unlinked is what the fixture's app leaves out of its binary: methods
// on both receiver kinds, a generic function never instantiated, a
// generic type's method and a main-package function. Max, Push and Key
// are linked only as shape instantiations and must not be listed.
var unlinked = []string{
	"fixture/lib.T.DeadVal",
	"fixture/lib.(*T).DeadPtr",
	"fixture/lib.DeadGeneric",
	"fixture/lib.(*Stack).Drop",
	"fixture/lib.Dead",
	"fixture/cmd/app.unused",
}

// runCheck runs the check over root with an allowlist naming entries,
// and returns its problem count and report.
func runCheck(t *testing.T, root string, entries ...string) (int, string) {
	t.Helper()
	allow := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(allow, []byte("# fixture\n"+strings.Join(entries, " kept on purpose\n")+" kept on purpose\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	bad, err := check(root, allow, &out)
	if err != nil {
		t.Fatal(err)
	}
	return bad, out.String()
}

func TestFixtureUnlinkedFunctionsAllowlisted(t *testing.T) {
	if bad, out := runCheck(t, "testdata/fixture", unlinked...); bad != 0 {
		t.Fatalf("%d problems with every unlinked function listed:\n%s", bad, out)
	}
}

func TestFixtureFailures(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []string
		want    string
	}{
		{"unlisted", unlinked[1:], "fixture/lib.T.DeadVal is linked by no binary"},
		{"reachable entry", append([]string{"fixture/lib.(*T).Ptr"}, unlinked...), "fixture/lib.(*T).Ptr is allowlisted, but a binary links it"},
		{"generic reachable entry", append([]string{"fixture/lib.Max"}, unlinked...), "fixture/lib.Max is allowlisted, but a binary links it"},
		{"main reachable entry", append([]string{"fixture/cmd/app.helper"}, unlinked...), "fixture/cmd/app.helper is allowlisted, but a binary links it"},
		{"stale entry", append([]string{"fixture/lib.Gone"}, unlinked...), "fixture/lib.Gone is allowlisted, but no such function exists"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, out := runCheck(t, "testdata/fixture", tc.entries...)
			if bad != 1 || !strings.Contains(out, tc.want) {
				t.Fatalf("got %d problems, want 1 naming %q:\n%s", bad, tc.want, out)
			}
		})
	}
}

// A function added where no binary calls it fails the check.
func TestNewUnreachedFunctionFails(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "lib/lib.go", "cmd/app/main.go"} {
		data, err := os.ReadFile(filepath.Join("testdata/fixture", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	extra := "package lib\n\n// Added is called by nothing.\nfunc (p Pair[K, V]) Added() V { return p.V }\n"
	if err := os.WriteFile(filepath.Join(root, "lib", "added.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, out := runCheck(t, root, unlinked...)
	if want := "fixture/lib.Pair.Added is linked by no binary"; bad != 1 || !strings.Contains(out, want) {
		t.Fatalf("got %d problems, want 1 naming %q:\n%s", bad, want, out)
	}
}

func TestAllowlistEntryNeedsReason(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(allow, []byte("fixture/lib.Dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(allow); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"adaptdb/internal/block.rangeOf[go.shape.int64]":        "adaptdb/internal/block.rangeOf",
		"p.(*Stack[go.shape.[]uint8]).Push":                     "p.(*Stack).Push",
		"p.Pair[go.shape.int,go.shape.struct { A [2]int }].Key": "p.Pair.Key",
		"p.F[go.shape.int].func1":                               "p.F.func1",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}
