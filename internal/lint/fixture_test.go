package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<pkg>, runs the named analyzers, and
// checks the diagnostics against the fixture's // want "regexp"
// comments: every want must be matched by a diagnostic on its line
// (the pattern is applied to "rule: message"), and every diagnostic
// must be claimed by a want. Suppressed cases are simply lines with a
// //lint:ignore directive and no want.
func runFixture(t *testing.T, pkg string, rules ...string) {
	t.Helper()
	runFixtureMulti(t, []string{pkg}, rules...)
}

// runFixtureMulti loads several fixture packages as one program.
// Cross-package diagnostics (a blocking callee, a hot-path callee in a
// dependency) land in whichever package owns the offending line, so
// wants are parsed from every loaded package's directory.
func runFixtureMulti(t *testing.T, pkgPaths []string, rules ...string) {
	t.Helper()
	pkgs, fset, err := Load(Config{Dir: filepath.Join("testdata", "src")}, pkgPaths...)
	if err != nil {
		t.Fatalf("load fixtures %v: %v", pkgPaths, err)
	}
	diags := Run(pkgs, fset, selectAnalyzers(t, rules))

	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg.Dir)...)
	}
	for _, d := range diags {
		got := d.Rule + ": " + d.Message
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(got) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s:%d: %s", d.Pos.Filename, d.Pos.Line, got)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

func selectAnalyzers(t *testing.T, rules []string) []*Analyzer {
	t.Helper()
	all := NewAnalyzers()
	if len(rules) == 0 {
		return all
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, r := range rules {
		a, ok := byName[r]
		if !ok {
			t.Fatalf("no analyzer named %q", r)
		}
		out = append(out, a)
	}
	return out
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", path, i+1, line)
			}
			for _, q := range quoted {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", path, i+1, q, err)
				}
				wants = append(wants, &want{file: abs, line: i + 1, re: regexp.MustCompile(pat)})
			}
		}
	}
	return wants
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "sim", "determinism", "seed")
}

func TestDeterminismAllowlistFixture(t *testing.T) {
	runFixture(t, "serve", "determinism", "seed")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "maporder", "maporder")
}

func TestSeedFixture(t *testing.T) {
	runFixture(t, "seeds", "seed")
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, "ctxpkg", "ctxflow")
}

func TestCtxFlowMainFixture(t *testing.T) {
	runFixture(t, "mainpkg", "ctxflow")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, "errdrop", "errdrop")
}

func TestObsNamesFixture(t *testing.T) {
	runFixture(t, "obsnames", "obsnames")
}

func TestFloatCmpFixture(t *testing.T) {
	runFixtureMulti(t, []string{"floatcmp", "floatcmpdep"}, "floatcmp")
}

func TestLockSafeFixture(t *testing.T) {
	runFixtureMulti(t, []string{"locksafe", "locksafedep"}, "locksafe")
}

func TestHotAllocFixture(t *testing.T) {
	runFixtureMulti(t, []string{"hotalloc", "hotallocdep"}, "hotalloc")
}

// TestUnusedDirectiveFixture exercises the stale-suppression check: a
// //lint:ignore that suppresses nothing is itself reported, but only
// when every rule it names was part of the run.
func TestUnusedDirectiveFixture(t *testing.T) {
	runFixture(t, "unuseddir", "errdrop")
}

// TestDirectiveValidation pins the malformed-directive diagnostics
// explicitly (a malformed directive cannot carry a want comment: the
// comment text would become its reason).
func TestDirectiveValidation(t *testing.T) {
	pkgs, fset, err := Load(Config{Dir: filepath.Join("testdata", "src")}, "directive")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, fset, selectAnalyzers(t, []string{"errdrop"}))
	var got []string
	for _, d := range diags {
		got = append(got, strings.TrimPrefix(d.String(), pkgs[0].Dir+string(filepath.Separator)))
	}
	want := []string{
		"directive.go:9:2: directive: malformed //lint:ignore: want \"//lint:ignore <rule>[,<rule>] <reason>\"",
		"directive.go:10:2: errdrop: unchecked error returned by os.Remove",
		"directive.go:14:2: directive: //lint:ignore names unknown rule \"nosuchrule\"",
		"directive.go:15:2: errdrop: unchecked error returned by os.Remove",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}
