package opt

import (
	"fmt"
	"math"
	"sort"
)

// DualApprox implements the Hochbaum–Shmoys dual-approximation scheme
// for P||C_max, which the paper's related-work section cites as the
// way to get arbitrarily good offline approximations ("one can even
// obtain an arbitrarily good approximation algorithm ... with a dual
// approximation algorithm"). It binary-searches a target makespan T;
// for each T a (1+eps)-relaxed feasibility oracle packs the "big"
// tasks (those > eps·T) exactly over rounded size classes and
// greedily adds the small ones. The returned value is a certified
// upper bound on C* within a factor (1+eps)(1+2⁻³⁰) — typically much
// tighter than MULTIFIT's 13/11 for small eps.
//
// Cost grows steeply as eps shrinks (the oracle works over ~1/eps²
// size classes with ≤ 1/eps big tasks per machine), so eps below ~0.1
// is only practical for small instances. The oracle's search is
// budgeted: if its state space explodes, DualApprox falls back to
// min(MULTIFIT, LPT) and reports ok=false.
func DualApprox(times []float64, m int, eps float64) (float64, bool) {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("opt: DualApprox eps %v outside (0,1)", eps))
	}
	if len(times) == 0 {
		return 0, true
	}
	if m <= 1 {
		s := 0.0
		for _, p := range times {
			s += p
		}
		return s, true
	}
	lb := LowerBound(times, m)
	ub, _ := LPT(times, m)
	if mf := MultiFit(times, m, 24); mf < ub {
		ub = mf
	}
	if nearlyEqual(lb, ub) {
		return lb, true
	}

	desc := make([]float64, len(times))
	copy(desc, times)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))

	const budget = 4_000_000 // oracle state budget across the whole search
	used := 0

	// Invariant: oracle rejected lo (so C* may exceed lo), oracle
	// accepted hi (so there is a schedule of makespan ≤ (1+eps)·hi).
	// Completeness of the oracle gives: reject(t) ⇒ C* > t. Hence at
	// the end C* > lo ≈ hi, and (1+eps)·hi ≤ (1+eps)·C*·(1+tiny).
	lo, hi := lb, ub
	fits, okb := dualFeasible(desc, m, lo, eps, budget, &used)
	if !okb {
		return ub, false
	}
	if fits {
		return math.Min(lo*(1+eps), ub), true
	}
	for iter := 0; iter < 30 && (hi-lo) > 1e-9*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		fits, okb := dualFeasible(desc, m, mid, eps, budget, &used)
		if !okb {
			return ub, false
		}
		if fits {
			hi = mid
		} else {
			lo = mid
		}
	}
	// hi·(1+eps) certifies the (1+eps)-optimality claim; LPT/MULTIFIT
	// are achievable schedules too, so never report worse than them.
	return math.Min(hi*(1+eps), ub), true
}

// dualFeasible is the (1+eps)-relaxed feasibility oracle: it reports
// fits=true only if the tasks provably fit on m machines of capacity
// (1+eps)·t, and fits=false only if they provably do not fit on m
// machines of capacity t (so C* > t). okb=false means the state
// budget ran out before either could be certified.
//
// desc must be sorted non-increasing.
func dualFeasible(desc []float64, m int, t, eps float64, budget int, used *int) (fits, okb bool) {
	if t <= 0 {
		return false, true
	}
	if desc[0] > t {
		// Even alone, the largest task exceeds capacity t.
		return false, true
	}

	// Partition into big (> eps·t) and small.
	nBig := sort.Search(len(desc), func(i int) bool { return desc[i] <= eps*t })
	big := desc[:nBig]
	small := desc[nBig:]

	// Round big tasks down to multiples of unit = eps²·t; class index
	// i means rounded size i·unit. Big sizes lie in (eps·t, t], so
	// i ∈ [floor(1/eps), 1/eps²].
	unit := eps * eps * t
	realByClass := map[int][]float64{}
	for _, p := range big {
		i := int(p / unit)
		realByClass[i] = append(realByClass[i], p)
	}
	classes := make([]int, 0, len(realByClass))
	for i := range realByClass {
		classes = append(classes, i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))

	// Bail out before the configuration space explodes: the scheme is
	// exponential in the class count, and the caller falls back to
	// MULTIFIT/LPT on okb=false.
	if len(classes) > 20 {
		return false, false
	}

	need := make([]int, len(classes))
	for ci, c := range classes {
		need[ci] = len(realByClass[c])
	}
	capUnits := int(t / unit)

	// minMachines: fewest capacity-t machines packing the rounded
	// residual vector exactly. Memoized exhaustive DFS over machine
	// configurations; -1 signals budget exhaustion. The memo is keyed by
	// the residual counts in fixed-width binary, written into one reused
	// buffer: a lookup through memo[string(key)] allocates nothing.
	memo := map[string]int{}
	width := keyWidth(nBig)
	var key []byte
	var minMachines func(res []int) int
	minMachines = func(res []int) int {
		empty := true
		for _, r := range res {
			if r > 0 {
				empty = false
				break
			}
		}
		if empty {
			return 0
		}
		key = appendKey(key[:0], res, width)
		if v, ok := memo[string(key)]; ok {
			return v
		}
		*used++
		if *used > budget {
			return -1
		}
		best := math.MaxInt32
		cfg := make([]int, len(res))
		next := make([]int, len(res)) // each leaf's residual, dead once minMachines(next) returns
		var fill func(ci, capLeft int, any bool)
		fill = func(ci, capLeft int, any bool) {
			*used++
			if *used > budget {
				best = -1
			}
			if best == -1 {
				return
			}
			if ci == len(res) {
				if !any {
					return
				}
				for i := range res {
					next[i] = res[i] - cfg[i]
				}
				sub := minMachines(next)
				if sub == -1 {
					best = -1
					return
				}
				if sub+1 < best {
					best = sub + 1
				}
				return
			}
			maxTake := res[ci]
			if classes[ci] > 0 {
				if byCap := capLeft / classes[ci]; byCap < maxTake {
					maxTake = byCap
				}
			}
			for take := maxTake; take >= 0; take-- {
				cfg[ci] = take
				fill(ci+1, capLeft-take*classes[ci], any || take > 0)
				if best == -1 {
					return
				}
			}
			cfg[ci] = 0
		}
		fill(0, capUnits, false)
		// The recursion rewrote key; res is still this call's residual.
		key = appendKey(key[:0], res, width)
		memo[string(key)] = best
		return best
	}

	q := 0
	if len(need) > 0 {
		q = minMachines(need)
		if q == -1 {
			return false, false
		}
		if q > m {
			// Rounded big tasks need more than m capacity-t machines. If
			// C* ≤ t, the optimal schedule packs the *real* big tasks into
			// m machines of capacity t; rounding down only shrinks them,
			// so the rounded packing would fit too. Hence C* > t.
			return false, true
		}
	}

	// Reconstruct one optimal big packing to obtain real per-machine
	// loads: peel off a configuration whose removal decrements
	// minMachines, assigning real task sizes class by class.
	loads := make([]float64, m)
	if q > 0 {
		res := append([]int(nil), need...)
		realLeft := map[int][]float64{}
		for c, xs := range realByClass {
			realLeft[c] = append([]float64(nil), xs...)
		}
		for machine := 0; machine < q; machine++ {
			remaining := minMachines(res)
			if remaining == -1 {
				return false, false // budget exhausted mid-reconstruction
			}
			target := remaining - 1
			if target < 0 {
				break
			}
			cfg, ok := findConfig(res, classes, capUnits, target, minMachines, budget, used)
			if !ok {
				return false, false
			}
			load := 0.0
			for ci, take := range cfg {
				c := classes[ci]
				for x := 0; x < take; x++ {
					xs := realLeft[c]
					load += xs[len(xs)-1]
					realLeft[c] = xs[:len(xs)-1]
				}
				res[ci] -= take
			}
			loads[machine] = load
		}
	}

	// Greedy small phase: place each small task on any machine whose
	// current load is ≤ t. If none exists, every machine exceeds t, so
	// total work > m·t and C* > t. Placing onto a ≤ t machine keeps
	// its load ≤ t + eps·t.
	for _, p := range small {
		placed := false
		for i := range loads {
			if loads[i] <= t+1e-12 {
				loads[i] += p
				placed = true
				break
			}
		}
		if !placed {
			return false, true
		}
	}
	return true, true
}

// findConfig returns a non-empty machine configuration cfg ≤ res with
// rounded size ≤ capUnits such that minMachines(res − cfg) == target.
func findConfig(res, classes []int, capUnits, target int,
	minMachines func([]int) int, budget int, used *int) ([]int, bool) {
	cfg := make([]int, len(res))
	next := make([]int, len(res))
	var found []int
	var dfs func(ci, capLeft int, any bool) bool
	dfs = func(ci, capLeft int, any bool) bool {
		*used++
		if *used > budget {
			return false
		}
		if ci == len(res) {
			if !any {
				return false
			}
			for i := range res {
				next[i] = res[i] - cfg[i]
			}
			if minMachines(next) == target {
				found = append([]int(nil), cfg...)
				return true
			}
			return false
		}
		maxTake := res[ci]
		if classes[ci] > 0 {
			if byCap := capLeft / classes[ci]; byCap < maxTake {
				maxTake = byCap
			}
		}
		for take := maxTake; take >= 0; take-- {
			cfg[ci] = take
			if dfs(ci+1, capLeft-take*classes[ci], any || take > 0) {
				return true
			}
		}
		cfg[ci] = 0
		return false
	}
	if !dfs(0, capUnits, false) {
		return nil, false
	}
	return found, true
}

// keyWidth is the bytes a count up to n takes in appendKey: one below
// 256 tasks, as every vector Estimate asks about is.
func keyWidth(n int) int {
	w := 1
	for w < 8 && n>>(8*w) > 0 {
		w++
	}
	return w
}

// appendKey appends xs, non-negative and each below 256^width, to buf
// as width little-endian bytes apiece: equal keys are equal vectors of
// one length.
func appendKey(buf []byte, xs []int, width int) []byte {
	for _, x := range xs {
		for b := 0; b < width; b++ {
			buf = append(buf, byte(x>>(8*b)))
		}
	}
	return buf
}
