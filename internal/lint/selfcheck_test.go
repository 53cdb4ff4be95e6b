package lint

import (
	"testing"
)

// TestRepoIsClean mirrors the CI gate from inside the test suite: the
// full analyzer suite over every package in the repository must come
// back empty. A failure here means a change introduced a violation of
// one of the rules — determinism, seed, ctxflow, errdrop, maporder,
// obsnames, floatcmp, or the flow rules (locksafe, hotalloc)
// — without either fixing it or suppressing it with a reasoned
// //lint:ignore; stale suppressions fail here too.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, fset, err := Load(Config{Dir: root, ModulePath: mod}, "...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; the pattern expansion lost most of the repo", len(pkgs))
	}
	diags := Run(pkgs, fset, NewAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
