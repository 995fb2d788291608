package teraheap_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// orderMarker is the comment that declares a map range order-insensitive.
// The reason after the colon is required.
var orderMarker = regexp.MustCompile(`^// order-insensitive: \S`)

// TestMapRangeOrderInsensitive is the map-order lint. Go randomizes map
// iteration order, so a range over a map can make simulated time or a
// figure differ between runs of the same seed (the G1 mixed-GC
// collection-set bug). Every range over a map in a non-test file of the
// module must say why its order does not matter: a comment group holding
// "// order-insensitive: <reason>" that ends on the line of the for
// statement or on the line above it. Packages are type-checked from
// source, so a map reached through a named type or a field is caught too.
// The nested benchmark module is not walked.
func TestMapRangeOrderInsensitive(t *testing.T) {
	fset := token.NewFileSet()
	// One importer for every package: it caches each dependency's type
	// check, so the standard library and the module's own packages are
	// checked from source once.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	checked := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		var files []*ast.File
		for _, name := range pkg.GoFiles { // test files are not listed
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			t.Errorf("type-check %s: %v", dir, err)
			return nil
		}
		checked++
		for _, f := range files {
			checkMapRanges(t, fset, f, info)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if checked == 0 {
		t.Fatal("type-checked no packages")
	}
}

// checkMapRanges reports every range over a map in f that carries no
// order-insensitive marker.
func checkMapRanges(t *testing.T, fset *token.FileSet, f *ast.File, info *types.Info) {
	t.Helper()
	marked := map[int]bool{} // line a marker's comment group ends on
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if orderMarker.MatchString(c.Text) {
				marked[fset.Position(cg.End()).Line] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		if pos := fset.Position(rs.For); !marked[pos.Line] && !marked[pos.Line-1] {
			typ := types.TypeString(info.TypeOf(rs.X), func(p *types.Package) string { return p.Name() })
			t.Errorf("%s: range over %s without an \"// order-insensitive: <reason>\" comment", pos, typ)
		}
		return true
	})
}
