package lint

import (
	"go/ast"
	"go/types"
)

// nondetAllowlist names the packages (by final import-path element)
// that are allowed to observe wall-clock time and to select over
// channels: the serving and dispatch layers (the proxy tier, its front
// and cluster policies, and the wire substrate they share), the
// observability layer (timers are write-only and never feed back into
// results) and the fork-join engine. Everything else in the repo — in particular algo,
// sim, opt, bounds, adversary, placement, experiments, and stats —
// is deterministic by default: its output must be a pure function of
// inputs and explicit seeds so paper tables regenerate byte-identically.
var nondetAllowlist = map[string]bool{
	"serve":   true,
	"cluster": true,
	"front":   true,
	"proxy":   true,
	"wire":    true,
	"obs":     true,
	"par":     true,
}

// wallClockFuncs are the time-package entry points that read or wait
// on the wall clock / scheduler. Constants (time.Microsecond) and
// pure value types (time.Duration arithmetic) remain legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// that draw from the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true, "Int64": true,
	"Int64N": true, "Uint32": true, "Uint64": true, "Uint64N": true, "UintN": true,
	"Uint": true, "N": true, "Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// newDeterminism builds the determinism analyzer: in deterministic
// packages it forbids wall-clock reads, the global math/rand source,
// and select statements with more than one communication clause
// (whose completion order depends on the runtime scheduler).
func newDeterminism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall clock, global math/rand, and multi-way select in deterministic packages",
		Run:  runDeterminism,
	}
}

func runDeterminism(p *Pass) {
	if p.Pkg.Name == "main" || nondetAllowlist[lastPathElem(p.Pkg.Path)] {
		return
	}
	p.inspectStack(func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := p.Pkg.Info.Uses[n.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallClockFuncs[fn.Name()] {
					p.Reportf(n.Pos(), "wall-clock call time.%s in deterministic package %s", fn.Name(), p.Pkg.Name)
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					p.Reportf(n.Pos(), "global math/rand source (rand.%s) in deterministic package %s; draw from an explicitly seeded internal/rng.Source", fn.Name(), p.Pkg.Name)
				}
			}
		case *ast.SelectStmt:
			if n.Body != nil && len(n.Body.List) >= 2 {
				p.Reportf(n.Pos(), "select over %d cases in deterministic package %s: completion order is scheduler-dependent", len(n.Body.List), p.Pkg.Name)
			}
		}
		return true
	})
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
