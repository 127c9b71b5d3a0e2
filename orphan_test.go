package vessel

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanInternalPackages fails when some internal package has no
// non-test importer: code that only its own tests run is dead weight that
// no binary, figure, example or benchmark exercises. Delete such a
// package, or wire it into a path that runs. The walk covers the whole
// tree, perfbench's module included. A package cannot import itself, so
// every importer found lives outside the package's own directory.
func TestNoOrphanInternalPackages(t *testing.T) {
	var pkgs []string
	imported := map[string]bool{}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(dir, "internal/") && !seen[dir] {
			seen[dir] = true
			pkgs = append(pkgs, "vessel/"+dir)
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imported[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; the test must run from the module root")
	}
	for _, pkg := range pkgs {
		if !imported[pkg] {
			t.Errorf("%s has no non-test importer", pkg)
		}
	}
}
