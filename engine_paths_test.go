package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEventEnginesStayOffProductionPaths keeps the flat engine the only
// engine production code runs: the float event loops of internal/sim
// (Run, RunOpen, RunWithFailures, and the ListDispatcher they take) are
// the differential reference, reachable from tests only. The one
// exception is e9, whose StealingDispatcher executes tasks on machines
// outside their replica set — a policy the flat engine's per-machine
// queues cannot express.
func TestEventEnginesStayOffProductionPaths(t *testing.T) {
	const simPath = "repro/internal/sim"
	reference := map[string]bool{
		"Run": true, "RunOpen": true, "RunWithFailures": true, "NewListDispatcher": true,
	}
	allowed := map[string]bool{
		filepath.Join("internal", "experiments", "e9.go"): true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The engine's own package, lint fixtures (not part of the
			// build), and the benchmark's private build tree.
			if path == filepath.Join("internal", "sim") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || allowed[path] {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		simName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == simPath {
				simName = "sim"
				if imp.Name != nil {
					simName = imp.Name.Name
				}
			}
		}
		if simName == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == simName && reference[sel.Sel.Name] {
				t.Errorf("%s: calls sim.%s, a reference event engine; production code runs sim.RunFlatSharded / sim.RunFlatOpenSharded",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
