// Package lint is uncertlint: a repo-native static-analysis engine
// enforcing the invariants the reproduction's byte-identical
// regeneration guarantee and the serving tier rest on — no wall clock
// in deterministic packages, explicit seeds only, no map-iteration
// order leaking into output, contexts threaded through every dispatch
// path, no dropped errors, literal metric names of one kind each,
// deterministic float comparisons, no lock held across a blocking call
// or leaked on a return path, and no allocation on a //perf:hotpath
// closure.
//
// A rule keeps its place only by a realistic mutation of the tree that
// breaks something and that no other check (go vet, the tests, the race
// detector, the allocation kernels, make figs-check) catches; LINTING.md
// holds the mutation table.
//
// The engine is stdlib-only (go/parser, go/ast, go/types with the
// source importer); see LINTING.md for each rule's rationale and the
// suppression syntax:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// A directive suppresses matching diagnostics on its own line and on
// the line immediately below, and must carry a non-empty reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one pluggable rule. NewAnalyzers returns fresh
// instances: an analyzer may carry cross-package state (obs-names
// tracks registrations over the whole run) inside its Run closure.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:ignore.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Prog is the shared whole-run view: the call graph and its
	// interprocedural summaries over the roots and their transitive
	// repo-local dependencies. Analyzers still report only on
	// declarations in Pkg; Prog supplies the cross-package facts.
	Prog *Program

	rule  string
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// NewAnalyzers returns a fresh instance of every analyzer in the
// suite. Instances must not be reused across Run calls: some hold
// run-scoped state.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		newDeterminism(),
		newMapOrder(),
		newSeed(),
		newCtxFlow(),
		newErrDrop(),
		newObsNames(),
		newFloatCmp(),
		newLockSafe(),
		newHotAlloc(),
	}
}

// Run applies analyzers to pkgs (in sorted path order), applies
// //lint:ignore suppressions, validates the directives themselves,
// and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) []Diagnostic {
	kept, _ := RunAll(pkgs, fset, analyzers)
	return kept
}

// RunAll is Run, additionally returning the diagnostics that
// //lint:ignore directives suppressed (for the -json output mode,
// which reports suppression state per finding). Both slices are
// sorted by position.
func RunAll(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) (kept, suppressed []Diagnostic) {
	// A directive may legitimately name any rule of the suite, not
	// just the ones selected for this run: running -rules determinism
	// must not report the tree's obsnames suppressions as unknown.
	known := map[string]bool{}
	for _, a := range NewAnalyzers() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	prog := newProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Fset: fset, Pkg: pkg, Prog: prog, rule: a.Name, diags: &diags})
		}
	}
	if ran["hotalloc"] && len(prog.hotClosure()) == 0 {
		// No //perf:hotpath seed among the loaded roots: hotalloc had
		// nothing to suppress, so a package-subset run must not call the
		// full tree's hotalloc suppressions stale.
		ran["hotalloc"] = false
	}
	sup, dirDiags := collectDirectives(pkgs, fset, known)
	kept = dirDiags
	for _, d := range diags {
		if sup.matches(d) {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	// A directive that suppressed nothing is itself a finding: stale
	// suppressions hide nothing today and mask real findings tomorrow.
	// Only judged when every rule the directive names actually ran —
	// a -rules subset run must not call the others' directives unused.
	for _, dir := range sup.directives {
		if dir.used {
			continue
		}
		allRan := true
		for _, r := range dir.rules {
			if !ran[r] {
				allRan = false
			}
		}
		if !allRan {
			continue
		}
		kept = append(kept, Diagnostic{
			Pos:     dir.pos,
			Rule:    directiveRule,
			Message: fmt.Sprintf("unused //lint:ignore %s: no diagnostic suppressed on this or the next line", strings.Join(dir.rules, ",")),
		})
	}
	sortDiags(kept)
	sortDiags(suppressed)
	return kept, suppressed
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// directiveRecord is one well-formed //lint:ignore comment, tracked so
// directives that suppress nothing can be reported.
type directiveRecord struct {
	pos   token.Position
	rules []string
	used  bool
}

// suppressions maps file -> line -> rule -> the directives covering
// that (line, rule). Matching marks the covering directives used.
type suppressions struct {
	byPos      map[string]map[int]map[string][]*directiveRecord
	directives []*directiveRecord
}

func (s *suppressions) add(file string, line int, rule string, dir *directiveRecord) {
	byLine, ok := s.byPos[file]
	if !ok {
		byLine = map[int]map[string][]*directiveRecord{}
		s.byPos[file] = byLine
	}
	rules, ok := byLine[line]
	if !ok {
		rules = map[string][]*directiveRecord{}
		byLine[line] = rules
	}
	rules[rule] = append(rules[rule], dir)
}

func (s *suppressions) matches(d Diagnostic) bool {
	dirs := s.byPos[d.Pos.Filename][d.Pos.Line][d.Rule]
	for _, dir := range dirs {
		dir.used = true
	}
	return len(dirs) > 0
}

// directiveRule names the pseudo-rule under which malformed
// //lint:ignore directives are reported. It is not itself
// suppressible.
const directiveRule = "directive"

// collectDirectives parses //lint:ignore comments. A well-formed
// directive suppresses its rules on the directive's own line and the
// next line; a malformed one (missing reason, unknown rule) becomes a
// diagnostic so suppressions can never silently rot.
func collectDirectives(pkgs []*Package, fset *token.FileSet, known map[string]bool) (*suppressions, []Diagnostic) {
	sup := &suppressions{byPos: map[string]map[int]map[string][]*directiveRecord{}}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     fset.Position(pos),
			Rule:    directiveRule,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						report(c.Pos(), "malformed //lint:ignore: want \"//lint:ignore <rule>[,<rule>] <reason>\"")
						continue
					}
					bad := false
					for _, rule := range strings.Split(fields[0], ",") {
						if !known[rule] {
							report(c.Pos(), "//lint:ignore names unknown rule %q", rule)
							bad = true
						}
					}
					if bad {
						continue
					}
					pos := fset.Position(c.Pos())
					dir := &directiveRecord{pos: pos, rules: strings.Split(fields[0], ",")}
					sup.directives = append(sup.directives, dir)
					for _, rule := range dir.rules {
						sup.add(pos.Filename, pos.Line, rule, dir)
						sup.add(pos.Filename, pos.Line+1, rule, dir)
					}
				}
			}
		}
	}
	return sup, diags
}

// inspectStack walks every file of the pass's package, handing fn each
// node together with the stack of its ancestors (outermost first,
// excluding the node itself). Returning false prunes the subtree.
func (p *Pass) inspectStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}
