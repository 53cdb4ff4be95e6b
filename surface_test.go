package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists exported names under internal/ that no non-test file
// names but that stay on purpose, each with its reason. A method that
// satisfies a standard-library interface is reached through that
// interface, never by name.
var surfaceKeep = map[string]string{
	"Instance.MarshalJSON":    "encoding/json calls it through json.Marshaler",
	"Instance.UnmarshalJSON":  "encoding/json calls it through json.Unmarshaler",
	"Placement.MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"Placement.UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
	"Schedule.MarshalJSON":    "encoding/json calls it through json.Marshaler",
	"Schedule.UnmarshalJSON":  "encoding/json calls it through json.Unmarshaler",
	// Only tests call this one; see ROADMAP 18.
	"Source.Perm": "the algo and sim tests draw permutations from it, and a _test.go file cannot export it to them",
}

// TestEveryExportedFuncHasANonTestCaller holds the internal packages to
// the surface the program uses: every exported top-level function, and
// every exported method of an exported type, declared in a non-test file
// under internal/ must be named by some non-test file of the module
// (internal/, cmd/, examples/ or the root) other than at its own
// declaration. A name only tests call is a test helper, and belongs in a
// _test.go file, or it is dead. Matching is by identifier alone, so a
// name that collides with any other identifier counts as used: the test
// can miss dead code but cannot fail on live code.
func TestEveryExportedFuncHasANonTestCaller(t *testing.T) {
	type decl struct {
		name string // Func or Type.Method
		pos  token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string]int{} // identifier -> occurrences in non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				name = recv + "." + name
			}
			decls = append(decls, decl{name, fset.Position(fd.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("only %d exported functions found under internal/; the walk lost most of the repo", len(decls))
	}
	// Each declaration names itself once; a name declared k times (the
	// same method on several types) needs more than k occurrences.
	declared := map[string]int{}
	for _, d := range decls {
		declared[short(d.name)]++
	}
	var unused []string
	kept := map[string]bool{}
	for _, d := range decls {
		unnamed := uses[short(d.name)] <= declared[short(d.name)]
		if _, ok := surfaceKeep[d.name]; ok {
			kept[d.name] = unnamed
			continue
		}
		if unnamed {
			unused = append(unused, d.name+" ("+filepath.ToSlash(d.pos.Filename)+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no non-test file names it", u)
	}
	// A keep-list entry whose name is gone, or has gained a caller, is
	// stale: drop it so the list stays the set of exceptions.
	var stale []string
	for name := range surfaceKeep {
		if !kept[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("surfaceKeep[%q] is stale: no such declaration left without a caller", name)
	}
}

// receiverType is the type name of a method receiver: T from T, *T,
// T[K] or *T[K].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func short(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
