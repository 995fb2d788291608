package rt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// constructors are the low-level constructors that assemble a runtime,
// keyed by the import path (below the module path) of their package.
// Only the kind registry's builders may call them.
var constructors = map[string][]string{
	"internal/core":         {"New"},
	"internal/gc":           {"New"},
	"internal/baselines/g1": {"New"},
	"internal/heap":         {"New", "NewUnmapped"},
}

// constructionFile is the one non-test file allowed to call them.
const constructionFile = "internal/rt/kinds.go"

// TestOneConstructionPath is the construction-path lint: NewSession is
// the only way to build a runtime, so no non-test file of the module —
// the facade, the CLI and the examples included — may call a runtime
// constructor outside the kind registry's builders. Qualified references
// (heap.New) are caught anywhere; unqualified calls (New inside package
// g1) are caught in the constructor's own package, outside the bodies of
// its constructors. The nested benchmark module is a separate module and
// is not walked.
func TestOneConstructionPath(t *testing.T) {
	root := filepath.Join("..", "..")
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatalf("read go.mod: %v", err)
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		t.Fatal("go.mod declares no module path")
	}

	fset := token.NewFileSet()
	walked := 0
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == constructionFile {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		walked++
		// The file's own package may call its constructors unqualified.
		own := constructors[path.Dir(rel)]
		imported := map[string][]string{} // local package name → constructors
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			names, ok := constructors[strings.TrimPrefix(ip, module+"/")]
			if !ok {
				continue
			}
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = names
		}
		report := func(pos token.Pos, name string) {
			t.Errorf("%s: %s is a runtime constructor; build runtimes with rt.NewSession (only %s may call it)",
				fset.Position(pos), name, constructionFile)
		}
		for _, decl := range f.Decls {
			// A constructor may delegate to its own package's constructors
			// (heap.New lays out through NewUnmapped).
			fd, isFunc := decl.(*ast.FuncDecl)
			delegating := isFunc && fd.Recv == nil && slices.Contains(own, fd.Name.Name)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && slices.Contains(imported[x.Name], n.Sel.Name) {
						report(n.Pos(), x.Name+"."+n.Sel.Name)
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && !delegating && slices.Contains(own, id.Name) {
						report(n.Pos(), f.Name.Name+"."+id.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if walked == 0 {
		t.Fatal("walked no Go files")
	}
}
