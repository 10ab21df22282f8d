// Command reachcheck lists the functions no binary links. Each must be
// deleted or named, with the reason it stays, in the allowlist
// cmd/reachcheck/allowlist.txt (one linker name and its reason per line;
// blank and # lines skipped). It fails on an unlinked function the list
// does not name and on an entry that a binary links or that is gone.
//
// It builds every main package, and each nested module (bench/), with
// inlining off, reads the kept symbols with `go tool nm`, stripped of
// type arguments, and maps each function of the non-test files outside
// nested modules, testdata and internal/exec/difftest (test-harness
// code) to its linker name: path.F, path.(*T).M or path.T.M. The linker
// keeps methods it cannot prove unused, so for methods the list is a
// lower bound.
//
// Usage:
//
//	reachcheck [dir]   # default "."
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// exempt holds directories whose code only tests reach, by design.
var exempt = map[string]bool{"internal/exec/difftest": true}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad, err := check(root, filepath.Join(root, "cmd", "reachcheck", "allowlist.txt"), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reachcheck: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "reachcheck: %d problem(s): delete the function, or list it in the allowlist with a reason\n", bad)
		os.Exit(1)
	}
}

// check writes one line per problem to w and returns how many it found.
func check(root, allowFile string, w io.Writer) (int, error) {
	mod, err := goCmd(root, "list", "-m")
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	syms := map[string]map[string]bool{} // binary → linked names
	build := func(dir, pkg, bin string) error {
		out := filepath.Join(tmp, fmt.Sprint(len(syms)))
		if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", out, pkg); err != nil {
			return err
		}
		nm, err := goCmd(dir, "tool", "nm", out)
		syms[bin] = map[string]bool{}
		for _, line := range strings.Split(nm, "\n") {
			if f := strings.SplitN(strings.TrimSpace(line), " ", 3); len(f) == 3 {
				syms[bin][stripTypeArgs(f[2])] = true
			}
		}
		return err
	}

	type decl struct { // bin "" means any binary
		name, bin string
		pos       token.Pos
	}
	var decls []decl
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel = filepath.ToSlash(rel); rel != "." {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || exempt[rel] {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if err := build(path, ".", rel); err != nil {
					return err
				}
				return filepath.SkipDir // a nested module's code is not this module's
			}
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			ipath, bin := strings.TrimSuffix(mod+"/"+rel, "/."), ""
			if pkg.Name == "main" {
				bin = ipath
				if err := build(root, "./"+rel, bin); err != nil {
					return err
				}
			}
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
						decls = append(decls, decl{linkName(ipath, fd), bin, fd.Pos()})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	allow, err := readAllowlist(allowFile)
	if err != nil {
		return 0, err
	}
	bad := 0
	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos }) // file, then line
	for _, d := range decls {
		linked := d.bin != "" && syms[d.bin]["main"+strings.TrimPrefix(d.name, d.bin)]
		for _, s := range syms {
			linked = linked || d.bin == "" && s[d.name]
		}
		_, listed := allow[d.name]
		delete(allow, d.name)
		switch {
		case !linked && !listed:
			fmt.Fprintf(w, "%s: %s is linked by no binary\n", fset.Position(d.pos), d.name)
			bad++
		case linked && listed:
			fmt.Fprintf(w, "%s: %s is allowlisted, but a binary links it\n", fset.Position(d.pos), d.name)
			bad++
		}
	}
	for name, line := range allow {
		fmt.Fprintf(w, "%s:%d: %s is allowlisted, but no such function exists\n", allowFile, line, name)
		bad++
	}
	return bad, nil
}

// linkName is the linker's name for fd in the package at ipath.
func linkName(ipath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ipath + "." + fd.Name.Name
	}
	t, ptr := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) { // a generic type's receiver: T[E] or T[K, V]
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return ipath + "." + recv + "." + fd.Name.Name
}

// stripTypeArgs drops every bracketed type-argument list from a symbol:
// pkg.(*set[go.shape.int64]).add becomes pkg.(*set).add.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist maps each listed name to its line number.
func readAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	allow := map[string]int{}
	for n, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, name)
		}
		allow[name] = n + 1
	}
	return allow, err
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}
