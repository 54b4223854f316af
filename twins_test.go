package surfcomm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoDefaultArgumentTwins keeps one entry point per operation: no
// package may declare, on one receiver, an exported F beside FContext
// or FInto. Such a pair is a default-argument twin (F only passes
// context.Background() or a nil buffer to its sibling); callers pass
// the argument themselves instead. Nested modules (their own go.mod)
// and testdata are outside the scan.
func TestNoDefaultArgumentTwins(t *testing.T) {
	// scope is a package directory, plus " (T)" for methods on T.
	type decl struct{ scope, name string }
	declared := map[decl]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			scope := filepath.ToSlash(filepath.Dir(path))
			if fn.Recv != nil {
				scope += " (" + strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + ")"
			}
			declared[decl{scope, fn.Name.Name}] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for d := range declared {
		for _, suffix := range []string{"Context", "Into"} {
			if ast.IsExported(d.name) && declared[decl{d.scope, d.name + suffix}] {
				twins = append(twins, d.scope+": "+d.name+" beside "+d.name+suffix)
			}
		}
	}
	slices.Sort(twins)
	for _, tw := range twins {
		t.Errorf("default-argument twin: %s", tw)
	}
}
