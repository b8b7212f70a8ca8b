package testsupport

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is the module path in go.mod; tree is the import path of the
// test-support tree.
const (
	module = "gompax"
	tree   = module + "/internal/testsupport"
)

// moduleImports returns, for every package of the module rooted at
// root, the module packages its non-test files import, as go/build
// reads them for the running platform. Directories go ignores
// (testdata, names starting with "." or "_") and nested modules are
// skipped.
func moduleImports(t *testing.T, root string) map[string][]string {
	t.Helper()
	pkgs := map[string][]string{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		p, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		var deps []string
		for _, imp := range p.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				deps = append(deps, imp)
			}
		}
		pkgs[path.Join(module, filepath.ToSlash(rel))] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestBoundary keeps the test oracles out of the binaries. No package
// that a cmd/ or examples/ program links, directly or through other
// packages, may be the reference vector clocks or causal order (at
// their old paths internal/vc and internal/causality, or anywhere in
// the test-support tree); and outside the tree, only latticecheck may
// import the tree from a non-test file.
func TestBoundary(t *testing.T) {
	pkgs := moduleImports(t, filepath.Join("..", ".."))
	inTree := func(p string) bool {
		return p == tree || strings.HasPrefix(p, tree+"/")
	}
	oracle := func(p string) bool {
		return inTree(p) || p == module+"/internal/vc" || p == module+"/internal/causality"
	}

	var binaries []string
	for p := range pkgs {
		if strings.HasPrefix(p, module+"/cmd/") || strings.HasPrefix(p, module+"/examples/") {
			binaries = append(binaries, p)
		}
	}
	sort.Strings(binaries)
	if _, ok := pkgs[tree+"/vc"]; len(binaries) == 0 || !ok {
		t.Fatalf("walk found %d cmd/examples packages and no %s/vc: wrong module root?", len(binaries), tree)
	}
	linked := 0
	for _, bin := range binaries {
		// via records how the walk reached each package, to name the
		// import chain of a violation.
		via := map[string]string{bin: ""}
		stack := []string{bin}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if oracle(p) {
				chain := p
				for q := via[p]; q != ""; q = via[q] {
					chain = q + " -> " + chain
				}
				t.Errorf("%s links test-only package %s: %s", bin, p, chain)
				continue
			}
			for _, dep := range pkgs[p] {
				if _, seen := via[dep]; !seen {
					via[dep] = p
					stack = append(stack, dep)
				}
			}
		}
		linked += len(via)
	}
	if linked < 2*len(binaries) {
		t.Fatalf("the %d cmd/examples packages link only %d module packages in all: the walk read no imports", len(binaries), linked)
	}

	latticecheck := module + "/internal/lattice/latticecheck"
	for p, deps := range pkgs {
		if inTree(p) || p == latticecheck {
			continue
		}
		for _, dep := range deps {
			if inTree(dep) {
				t.Errorf("non-test files of %s import %s; only tests and latticecheck may", p, dep)
			}
		}
	}
}
