package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// globalAllowlists is the closed set of package-level variables each
// package on the run path may declare: this package, the executor, and
// the CLI that builds the run environment. Run configuration lives on
// Env and rt.Layers and is passed down, never stored in package state;
// any new top-level var must either be added here with justification or
// move onto those values.
var globalAllowlists = []struct {
	name, dir string
	allow     map[string]string
}{
	{"experiments", ".", map[string]string{
		"sparkSpecs":  "immutable workload table (Table 3 / Fig 6-7 sizing points)",
		"giraphSpecs": "immutable workload table (Table 4 sizing points)",
	}},
	{"runner", "../runner", nil},
	{"teraheap-bench", "../../cmd/teraheap-bench", map[string]string{
		"suite": "immutable experiment table (\"all\" order)",
	}},
}

// TestNoPackageLevelMutableConfig is the globals lint: it parses every
// non-test file of each package above and fails if a package-level var
// exists outside that package's allowlist. This is the CI tripwire
// against reintroducing cross-run config bleed through package state.
// Run one package's check with -run 'TestNoPackageLevelMutableConfig/^runner$'.
func TestNoPackageLevelMutableConfig(t *testing.T) {
	for _, pkg := range globalAllowlists {
		t.Run(pkg.name, func(t *testing.T) {
			entries, err := os.ReadDir(pkg.dir)
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			fset := token.NewFileSet()
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(pkg.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatalf("parse %s: %v", name, err)
				}
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						continue
					}
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.Name == "_" {
								continue // compile-time interface assertions
							}
							if _, ok := pkg.allow[id.Name]; !ok {
								t.Errorf("%s: package-level var %q is not in the allowlist; "+
									"run configuration belongs on Env/rt.Layers, not package state",
									fset.Position(id.Pos()), id.Name)
							}
						}
					}
				}
			}
		})
	}
}
