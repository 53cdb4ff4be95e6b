package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// locksafe enforces mutex discipline over the CFG, per lock key (the
// receiver expression plus read/write kind, so mu.Lock and mu.RLock
// are tracked independently):
//
//   - every Lock()/RLock() must be balanced by an Unlock()/RUnlock()
//     on every return path, either inline or registered with defer;
//   - no potentially blocking operation — channel send/receive,
//     select, network I/O, time.Sleep, sync.Pool.Put,
//     sync.WaitGroup.Wait, or a call to a local function the may-block
//     summary marks — while the lock is held.
//
// The dataflow tracks, per key, the set of possible (held, deferred)
// counter pairs on each path, unioned at joins. defer Unlock does not
// decrement the held count during the walk — the body really does
// hold the lock until return — so the blocking check stays armed; the
// exit check nets the deferred count off instead. Lock keys are
// syntactic (types.ExprString of the receiver), so aliasing a mutex
// through two names defeats the pairing; the repo locks through
// stable selector chains. Bodies with goto are skipped.
func newLockSafe() *Analyzer {
	return &Analyzer{
		Name: "locksafe",
		Doc:  "Lock must be released on every path and no blocking calls may run while a lock is held",
		Run:  runLockSafe,
	}
}

func runLockSafe(p *Pass) {
	p.Prog.mayBlockSummary()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, body := range funcBodies(fd) {
				runLockSafeBody(p, body)
			}
		}
	}
}

// lockState is the set of possible (held, deferred) pairs for one
// key, both clamped to 0..2, encoded as a 9-bit mask.
type lockState uint16

func lockBit(held, def int) lockState { return 1 << (held*3 + def) }

func (s lockState) each(fn func(held, def int)) {
	for held := 0; held <= 2; held++ {
		for def := 0; def <= 2; def++ {
			if s&lockBit(held, def) != 0 {
				fn(held, def)
			}
		}
	}
}

func (s lockState) shift(dHeld, dDef int) lockState {
	var out lockState
	s.each(func(held, def int) {
		out |= lockBit(clamp02(held+dHeld), clamp02(def+dDef))
	})
	return out
}

func clamp02(v int) int {
	if v < 0 {
		return 0
	}
	if v > 2 {
		return 2
	}
	return v
}

// anyHeld reports whether some path holds the lock right now.
func (s lockState) anyHeld() bool {
	out := false
	s.each(func(held, def int) {
		if held > 0 {
			out = true
		}
	})
	return out
}

// anyLeaked reports whether some path ends with more Locks than
// Unlocks plus registered deferred Unlocks.
func (s lockState) anyLeaked() bool {
	out := false
	s.each(func(held, def int) {
		if held > def {
			out = true
		}
	})
	return out
}

type lockOp struct {
	key   string
	dHeld int
	dDef  int
}

func runLockSafeBody(p *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	if cfg.Unsupported {
		return
	}
	info := p.Pkg.Info

	// First pass: find the keys locked in this body and remember each
	// key's first Lock position for reporting.
	firstLock := map[string]token.Pos{}
	keyOrder := []string{}
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, kind := lockCallKey(info, call); kind == opLock {
			if _, seen := firstLock[key]; !seen {
				firstLock[key] = call.Pos()
				keyOrder = append(keyOrder, key)
			}
		}
		return true
	})
	if len(keyOrder) == 0 {
		return
	}

	for _, key := range keyOrder {
		checkLockKey(p, cfg, key, firstLock[key])
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockCallKey classifies call as a lock or unlock of a sync mutex and
// returns the key: the receiver expression plus "/R" for the reader
// side of an RWMutex.
func lockCallKey(info *types.Info, call *ast.CallExpr) (string, lockOpKind) {
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", opNone
	}
	recv := recvNamed(fn)
	if recv != "Mutex" && recv != "RWMutex" && recv != "Locker" {
		return "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return key, opLock
	case "Unlock":
		return key, opUnlock
	case "RLock":
		return key + "/R", opLock
	case "RUnlock":
		return key + "/R", opUnlock
	}
	return "", opNone
}

// nodeLockOps extracts the lock/unlock operations a CFG node performs
// on key: inline calls move the held count, deferred calls (direct or
// wrapped in a closure) move the deferred count.
func nodeLockOps(info *types.Info, n ast.Node, key string) (dHeld, dDef int) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		countUnlocks := func(root ast.Node) {
			ast.Inspect(root, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if k, kind := lockCallKey(info, call); k == key && kind == opUnlock {
						dDef++
					}
				}
				return true
			})
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			countUnlocks(lit.Body)
		} else {
			countUnlocks(n.Call)
		}
		return 0, dDef
	default:
		inspectShallow(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if k, kind := lockCallKey(info, call); k == key {
					switch kind {
					case opLock:
						dHeld++
					case opUnlock:
						dHeld--
					}
				}
			}
			return true
		})
		return dHeld, 0
	}
}

// nodeBlocks returns a description of a potentially blocking operation
// in n (not descending into function literals), or "".
func nodeBlocks(p *Pass, n ast.Node) string {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		// Deferred work runs after the inline unlocks; judging it here
		// would misfire on the pooled-buffer defer-Put idiom.
		return ""
	}
	return blockingIn(p.Pkg.Info, n, p.Prog.mayBlock)
}

func checkLockKey(p *Pass, cfg *CFG, key string, lockPos token.Pos) {
	info := p.Pkg.Info
	in := map[*Block]lockState{}
	in[cfg.Entry] = lockBit(0, 0)
	reportedBlock := false

	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		state := in[b]
		for _, n := range b.Nodes {
			dHeld, dDef := nodeLockOps(info, n, key)
			if dHeld == 0 && dDef == 0 && state.anyHeld() && !reportedBlock {
				if why := nodeBlocks(p, n); why != "" {
					p.Reportf(n.Pos(), "potentially blocking operation (%s) while %s is locked", why, key)
					reportedBlock = true
				}
			}
			state = state.shift(dHeld, dDef)
		}
		for _, succ := range b.Succs {
			if old, seen := in[succ]; !seen || old|state != old {
				in[succ] = old | state
				work = append(work, succ)
			}
		}
	}
	if exit, ok := in[cfg.Exit]; ok && exit.anyLeaked() {
		recv, lock, unlock := key, "Lock", "Unlock"
		if r, ok := strings.CutSuffix(key, "/R"); ok {
			recv, lock, unlock = r, "RLock", "RUnlock"
		}
		p.Reportf(lockPos, "%s.%s() is not released on every return path (add %s or defer %s)", recv, lock, unlock, unlock)
	}
}
