package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name    string
		dir     string
		pattern string
		wantErr string
	}{
		{"missing dir", "testdata/src", "nosuchpkg", "nosuchpkg"},
		{"parse error", "testdata/broken", "parse", "expected"},
		{"type error", "testdata/broken", "typeerr", "type-checking"},
		{"mixed packages", "testdata/broken", "mixed", "contains packages"},
		{"import cycle", "testdata/src", "cyca", "import cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Load(Config{Dir: tc.dir}, tc.pattern)
			if err == nil {
				t.Fatalf("Load(%s, %s): want error containing %q, got nil", tc.dir, tc.pattern, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Load(%s, %s): error %q does not contain %q", tc.dir, tc.pattern, err, tc.wantErr)
			}
		})
	}
}

func TestLoadRecursivePattern(t *testing.T) {
	// internal/... under the fixture root picks up the rng and obs
	// stubs but must skip nothing else (there are no nested testdata
	// or hidden dirs there).
	pkgs, _, err := Load(Config{Dir: filepath.Join("testdata", "src")}, "internal/...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"internal/obs", "internal/rng"}
	if len(paths) != len(want) {
		t.Fatalf("got packages %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("got packages %v, want %v", paths, want)
		}
	}
}

func TestLoadModulePathMapping(t *testing.T) {
	// Loading a real repo package through its module path exercises
	// the ModulePath branch of import resolution.
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if mod != "repro" {
		t.Fatalf("module path = %q, want repro", mod)
	}
	pkgs, _, err := Load(Config{Dir: root, ModulePath: mod}, "internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/rng" {
		t.Fatalf("got %+v, want the single package repro/internal/rng", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Info == nil {
		t.Fatal("package loaded without type information")
	}
}

func TestFindModuleRootFailsOutsideModule(t *testing.T) {
	if _, _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Fatal("want an error outside any module")
	}
}
