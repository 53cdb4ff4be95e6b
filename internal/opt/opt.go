// Package opt estimates the offline optimal makespan C*_max of an
// instance with known processing times. The paper's guarantees compare
// an algorithm's makespan against C*_max, so the experiment harness
// needs trustworthy values of it:
//
//   - combinatorial lower bounds (average load, largest task, and the
//     general "k·m+1 largest tasks" pair bound);
//   - an exact branch-and-bound solver, feasible for the small
//     instances used in guarantee-validation tests;
//   - MULTIFIT (Coffman, Garey, Johnson 1978), a dual-approximation
//     upper bound with worst-case ratio 13/11; and
//   - the LPT upper bound (4/3 − 1/(3m)).
//
// Estimate combines them into a bracketing interval and reports
// whether the value is exact. Its upper end is the least of LPT, the
// Karmarkar–Karp differencing method and MULTIFIT, taken in that order:
// above the exact-search size MULTIFIT's bisection stops as soon as its
// lower end reaches min(LPT, KK), because from there its answer, never
// below that lower end, cannot lower the bracket — so the reported
// bracket is the one a full 24-step MULTIFIT gives, for fewer
// first-fit passes.
//
// StartEstimate is Estimate begun beside other work: the memo is read
// on the caller's goroutine and only a miss solves on a goroutine of
// its own, so a run can be scored while it executes. Its times slice is
// read until Pending.Wait returns.
package opt

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/keysort"
	"repro/internal/loadheap"
	"repro/internal/obs"
)

// Solver invocation metrics (see internal/obs). Estimate results are
// additionally memoized — see cache.go — because experiment sweeps
// re-score identical instances many times.
var (
	estimateCalls = obs.GetCounter("opt.estimate_calls")
	exactSolves   = obs.GetCounter("opt.exact_solves")
	multifitRuns  = obs.GetCounter("opt.multifit_runs")

	// Exact searches in estimateUncached that ran out of nodes before
	// proving an optimum: opt.exact_solves counts the attempts, this
	// the attempts that left the bracket open.
	budgetExhausted = obs.GetCounter("opt.budget_exhausted")

	// What a memo miss costs and which kernel steps did the work; the
	// counters are added once per solve from the scratch's own tallies.
	solveTimer      = obs.GetTimer("opt.solve")
	kkUnionMerges   = obs.GetCounter("opt.kk_union_merges")
	kkOverlapMerges = obs.GetCounter("opt.kk_overlap_merges")
	ffdProbes       = obs.GetCounter("opt.ffd_probes")
)

// solveScratch recycles what a solve sorts, packs and differences in.
// The experiment harness scores every trial from every worker; without
// pooling, each miss re-allocates an n-sized copy of the times, the
// first-fit index and the differencing slab, all dead on return.
type solveScratch struct {
	desc   []float64
	order  []int // LPT's visiting order
	sort   keysort.Scratch
	loads  loadheap.Tree[float64]
	ffd    ffdIndex
	kk     ldm
	search exactSearch
}

// solvePool is where every solve takes its scratch from and hands it
// back to. A sync.Pool alone lost them to the collector: it drops what
// sat idle through two collections, and a serving process collects
// every few solves; on a 2-core host, 79 of 2,438 cold solves of
// cmd/bench's serve-solve rebuilt their scratch (~198 KB at n=2k,
// m=512). The free list survives collections and is shared by every P;
// it holds GOMAXPROCS scratches, the solves that can run at once, and
// what does not fit goes to the sync.Pool, as before.
var solvePool = scratchPool{free: make([]*solveScratch, 0, runtime.GOMAXPROCS(0))}

type scratchPool struct {
	mu       sync.Mutex
	free     []*solveScratch // never past its capacity
	overflow sync.Pool
}

func (p *scratchPool) get() *solveScratch {
	p.mu.Lock()
	if n := len(p.free) - 1; n >= 0 {
		s := p.free[n]
		p.free[n], p.free = nil, p.free[:n]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	if s, ok := p.overflow.Get().(*solveScratch); ok {
		return s
	}
	return new(solveScratch)
}

func (p *scratchPool) put(s *solveScratch) {
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, s)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.overflow.Put(s)
}

// bracket sorts times into s.desc and returns the combinatorial lower
// bound with the better of LPT and 24-step MULTIFIT: the interval the
// exact search starts from.
func (s *solveScratch) bracket(times []float64, m int) (lb, ub float64) {
	s.sortDesc(times)
	lb = lowerBoundDesc(times, s.desc, m)
	ub = lptMakespanDesc(s.desc, m, &s.loads)
	if mf := multiFitDesc(s.desc, m, 24, lb, ub, math.Inf(1), &s.ffd); mf < ub {
		ub = mf
	}
	return lb, ub
}

// sortDesc overwrites s.desc with a descending-sorted copy of times,
// NaNs last (keysort.SortDesc: slices.Sort then slices.Reverse, by
// radix passes from a thousand times up).
func (s *solveScratch) sortDesc(times []float64) {
	s.desc = s.sort.SortDesc(times, s.desc)
}

// lptMakespanDesc returns the LPT makespan for descending-sorted
// times, skipping the task→machine mapping the exported LPT builds.
// Greedily adding each time to the least-loaded machine (lowest index
// on ties) reproduces LPT's assignment sequence exactly — same
// machines, same float accumulation order — so the value is identical.
func lptMakespanDesc(desc []float64, m int, loads *loadheap.Tree[float64]) float64 {
	loads.Reset(m)
	for _, p := range desc {
		loads.AddToMin(p)
	}
	return loads.MaxLoad()
}

// SumLowerBound returns Σp / m.
func SumLowerBound(times []float64, m int) float64 {
	sum := 0.0
	for _, p := range times {
		sum += p
	}
	return sum / float64(m)
}

// MaxLowerBound returns max_j p_j.
func MaxLowerBound(times []float64) float64 {
	max := 0.0
	for _, p := range times {
		if p > max {
			max = p
		}
	}
	return max
}

// PairLowerBound returns the strongest bound of the family: among the
// k·m+1 largest tasks some machine must execute at least k+1 of them,
// so C* ≥ sum of the k+1 smallest of those, for every k ≥ 1 with
// k·m+1 ≤ n.
func PairLowerBound(times []float64, m int) float64 {
	if len(times) <= m {
		return 0
	}
	s := solvePool.get()
	defer solvePool.put(s)
	s.sortDesc(times)
	return pairLowerBoundDesc(s.desc, m)
}

// pairLowerBoundDesc is PairLowerBound over descending-sorted times.
func pairLowerBoundDesc(desc []float64, m int) float64 {
	n := len(desc)
	if n <= m {
		return 0
	}
	best := 0.0
	for k := 1; k*m+1 <= n; k++ {
		// The k·m+1 largest are desc[:k*m+1]; the k+1 smallest of those
		// are desc[k*m-k : k*m+1].
		sum := 0.0
		for i := k*m - k; i <= k*m; i++ {
			sum += desc[i]
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// LowerBound returns the best of the combinatorial lower bounds.
func LowerBound(times []float64, m int) float64 {
	lb := SumLowerBound(times, m)
	if v := MaxLowerBound(times); v > lb {
		lb = v
	}
	if v := PairLowerBound(times, m); v > lb {
		lb = v
	}
	return lb
}

// lowerBoundDesc is LowerBound given the descending-sorted copy of
// times as well. The sum still runs over times in input order: float
// addition does not commute with the sort.
func lowerBoundDesc(times, desc []float64, m int) float64 {
	lb := SumLowerBound(times, m)
	if v := MaxLowerBound(times); v > lb {
		lb = v
	}
	if v := pairLowerBoundDesc(desc, m); v > lb {
		lb = v
	}
	return lb
}

// LPT returns the makespan of Largest Processing Time first on the
// given times, together with the task→machine mapping. LPT is a
// (4/3 − 1/(3m))-approximation, so its makespan is a certified upper
// bound on C*.
func LPT(times []float64, m int) (float64, []int) {
	return LPTInto(times, m, nil)
}

// LPTInto is LPT writing the mapping into buf, regrown to len(times)
// when it is too short, and returning it: a caller that schedules many
// instances keeps one mapping buffer instead of allocating one a call.
func LPTInto(times []float64, m int, buf []int) (float64, []int) {
	s := solvePool.get()
	defer solvePool.put(s)
	s.order = s.sort.OrderDesc(times, s.order) // time descending, index ascending
	s.loads.Reset(m)
	mapping := buf[:0]
	if cap(mapping) < len(times) {
		mapping = make([]int, len(times))
	}
	mapping = mapping[:len(times)]
	for _, j := range s.order {
		mapping[j] = s.loads.MinID()
		s.loads.AddToMin(times[j])
	}
	return s.loads.MaxLoad(), mapping
}

// ffdIndex is first fit's view of which items are still unpacked:
// next[i] is i while item i is unpacked and a later index once it is
// packed, so following next from i ends at the first unpacked item at
// or after i, or at n when none is left.
type ffdIndex struct {
	next   []int32
	probes int64 // fit tests made, for the opt.ffd_probes counter
}

func (x *ffdIndex) reset(n int) {
	if cap(x.next) < n+1 {
		x.next = make([]int32, n+1)
	}
	x.next = x.next[:n+1]
	for i := range x.next {
		x.next[i] = int32(i)
	}
}

// free returns the first unpacked item at or after i, halving the
// path it walks.
func (x *ffdIndex) free(i int) int {
	next := x.next
	for int(next[i]) != i {
		next[i] = next[next[i]]
		i = int(next[i])
	}
	return i
}

// ffdFits reports whether first-fit-decreasing packs the tasks into m
// bins of the given capacity. desc must be sorted non-increasing.
//
// First fit over a fixed item order can fill one bin at a time: what
// lands in bin 0 is every item, in order, that fits bin 0 when its turn
// comes, whatever the later bins hold; bin 1 is the same scan over the
// items left, and so on. Each bin therefore adds its items in the same
// order as the item-at-a-time loop and reaches the same float load.
// Within a bin, "load+p fits" is monotone in p (rounding is), so over
// the sorted items it is false on a prefix and true on the rest: when
// the next unpacked item does not fit, a binary search finds the first
// one that does.
func ffdFits(desc []float64, m int, capacity float64, x *ffdIndex) bool {
	const eps = 1e-12
	limit := capacity * (1 + eps)
	n := len(desc)
	x.reset(n)
	next := x.next
	probes := int64(0)
	fits := false
	head := 0 // no item before head is unpacked
	for bin := 0; ; bin++ {
		for head < n && int(next[head]) != head {
			head++
		}
		if head == n {
			fits = true
			break
		}
		if bin == m || desc[head] > limit {
			break
		}
		load := desc[head]
		next[head] = int32(head + 1)
		for i := head + 1; i < n; {
			if int(next[i]) != i {
				i = x.free(i)
				continue
			}
			probes++
			if load+desc[i] <= limit {
				load += desc[i]
				next[i] = int32(i + 1)
				i++
				continue
			}
			lo, hi := i+1, n // the first item that fits is in [lo, hi]
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				probes++
				if load+desc[mid] <= limit {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			i = lo // fits, unless it is packed already
		}
	}
	x.probes += probes
	return fits
}

// multiFitDesc runs MULTIFIT over descending-sorted times: a bisection
// of at most iterations steps (13 suffice for ~1e-4 relative precision)
// for the least capacity FFD packing fits in m bins, which is an upper
// bound on C* within a factor 13/11. It starts from the lower bound lo
// and ends at the LPT makespan hi. The bisection stops early once lo
// reaches stop: lo only rises and hi never falls below it, so every
// answer still to come is at least stop, and a caller that only wants
// one below stop has none coming. It gets hi, which is at least stop
// too. An infinite stop runs every iteration.
func multiFitDesc(desc []float64, m int, iterations int, lo, hi, stop float64, x *ffdIndex) float64 {
	multifitRuns.Inc()
	if ffdFits(desc, m, lo, x) {
		return lo
	}
	// Invariant: FFD fits at hi, does not fit at lo.
	for it := 0; it < iterations && lo < stop; it++ {
		mid := (lo + hi) / 2
		if ffdFits(desc, m, mid, x) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Result describes an Estimate outcome.
type Result struct {
	// Lower and Upper bracket C*_max.
	Lower, Upper float64
	// Exact reports Lower == Upper up to floating-point tolerance,
	// i.e. the value is the true optimum.
	Exact bool
	// Method names the source of the reported bracket: "trivial",
	// "exact", or "bounds".
	Method string
}

// Value returns the midpoint of the bracket — the point estimate of
// C*_max experiments divide by.
func (r Result) Value() float64 { return (r.Lower + r.Upper) / 2 }

// Estimate brackets C*_max by [LowerBound, min(LPT, Karmarkar–Karp,
// MULTIFIT)] after quick trivial checks, the upper bounds taken in
// that order: above exactLimit MULTIFIT stops bisecting once its lower
// end reaches min(LPT, KK), where it can no longer lower the bracket,
// so Upper is the full 24-step bracket's (see estimateUncached). When
// the ends do not meet, instances with n ≤ exactLimit tasks are solved
// exactly by branch-and-bound within exactBudget(m) nodes; a search
// that runs out of them leaves the bracket as it was. exactLimit ≤ 0
// selects the default of 20.
//
// Results for non-trivial instances are memoized in a concurrency-safe
// content-addressed cache (Estimate is a pure function of its inputs),
// so repeated scoring of one instance — e.g. several strategies
// compared on the same perturbed workload — pays for the solve once.
// The opt.cache_hits and opt.cache_misses counters report the hits and
// misses.
func Estimate(times []float64, m int, exactLimit int) Result {
	res, key, ok := lookup(times, m, exactLimit)
	if !ok {
		res = estimateUncached(times, m, key.exactLimit)
		cacheStore(key, times, res)
	}
	return res
}

// lookup is what Estimate and StartEstimate do before a solve: it
// counts the call, answers the trivial instances and looks the rest up
// in the memo. On a miss it returns the memo key the solve stores
// under, exactLimit's default resolved in it.
func lookup(times []float64, m int, exactLimit int) (Result, cacheKey, bool) {
	estimateCalls.Inc()
	if exactLimit <= 0 {
		exactLimit = 20
	}
	n := len(times)
	if n == 0 {
		return Result{Method: "trivial", Exact: true}, cacheKey{}, true
	}
	if m == 1 {
		s := 0.0
		for _, p := range times {
			s += p
		}
		return Result{Lower: s, Upper: s, Exact: true, Method: "trivial"}, cacheKey{}, true
	}
	if n <= m {
		v := MaxLowerBound(times)
		return Result{Lower: v, Upper: v, Exact: true, Method: "trivial"}, cacheKey{}, true
	}
	// Only the non-trivial path is worth memoizing.
	key := cacheKey{hash: hashTimes(times), n: n, m: m, exactLimit: exactLimit}
	res, ok := cacheLookup(key, times)
	return res, key, ok
}

// estimateUncached is the actual solve behind Estimate's memo cache,
// for n > m ≥ 2. It sorts the times once; the pair bound, LPT, the
// differencing method, MULTIFIT and the exact search all read that one
// descending copy.
//
// MULTIFIT runs last. Above exactLimit only the bracket's upper end
// min(LPT, KK, MULTIFIT) is wanted, so its bisection stops once the
// lower end reaches min(LPT, KK): nothing it returns from there on is
// below that (multiFitDesc), and Upper is what the full 24 steps give.
// On large instances KK lands within about 1e-8 of the lower bound, so
// most of MULTIFIT's first-fit passes go. Up to exactLimit the exact
// search is seeded with min(LPT, MULTIFIT) — KK does not seed it — so
// MULTIFIT takes every step there.
func estimateUncached(times []float64, m int, exactLimit int) Result {
	defer solveTimer.Start()()
	n := len(times)
	s := solvePool.get()
	defer solvePool.put(s)
	s.ffd.probes = 0
	s.sortDesc(times)
	desc := s.desc
	lb := lowerBoundDesc(times, desc, m)
	lpt := lptMakespanDesc(desc, m, &s.loads)
	kk := s.kk.run(desc, m)
	stop := math.Inf(1)
	if n > exactLimit {
		stop = lpt
		if kk < stop {
			stop = kk
		}
	}
	seed := lpt
	if mf := multiFitDesc(desc, m, 24, lb, lpt, stop, &s.ffd); mf < seed {
		seed = mf
	}
	ub := seed
	if kk < ub {
		ub = kk
	}
	ffdProbes.Add(s.ffd.probes)
	kkUnionMerges.Add(s.kk.unions)
	kkOverlapMerges.Add(s.kk.overlaps)
	if nearlyEqual(lb, ub) {
		return Result{Lower: lb, Upper: lb, Exact: true, Method: "bounds"}
	}
	if n <= exactLimit {
		exactSolves.Inc()
		if v, ok := s.exact(m, lb, seed, exactBudget(m)); ok {
			return Result{Lower: v, Upper: v, Exact: true, Method: "exact"}
		}
		budgetExhausted.Inc()
	}
	return Result{Lower: lb, Upper: ub, Method: "bounds"}
}

func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Exact computes the optimal makespan by depth-first branch-and-bound
// with symmetry breaking, seeded with the better of LPT and MULTIFIT.
// It explores at most maxNodes search nodes and reports ok=false when
// the budget is exhausted before the search space is closed.
func Exact(times []float64, m int, maxNodes int) (float64, bool) {
	exactSolves.Inc()
	n := len(times)
	if n == 0 {
		return 0, true
	}
	if m >= n {
		return MaxLowerBound(times), true
	}
	s := solvePool.get()
	defer solvePool.put(s)
	lb, best := s.bracket(times, m)
	return s.exact(m, lb, best, maxNodes)
}

// exactBudget is the node budget of Estimate's exact search on m
// machines. A node costs more as m grows, so 4M/m nodes (1M at m = 4,
// 500k at m = 8) bounds every search to about the same few tens of
// milliseconds. It is a count, never derived from a deadline: an answer
// that depended on the host's speed would not be a function of the
// instance.
func exactBudget(m int) int { return 4_000_000 / m }

// exactSearch is the state of one depth-first branch-and-bound run,
// kept on the solve's scratch so that a search allocates nothing once
// its loads have grown to m.
type exactSearch struct {
	desc, loads     []float64
	lb, best        float64
	nodes, maxNodes int
	exhausted       bool
}

// exact is Exact's search over s.desc (descending, n > m), given the
// lower bound that proves optimality and the incumbent min(LPT,
// MULTIFIT) to improve on.
func (s *solveScratch) exact(m int, lb, best float64, maxNodes int) (float64, bool) {
	if nearlyEqual(best, lb) {
		return best, true
	}
	x := &s.search
	if cap(x.loads) < m {
		x.loads = make([]float64, m)
	}
	x.loads = x.loads[:m]
	clear(x.loads)
	x.desc, x.lb, x.best, x.nodes, x.maxNodes, x.exhausted = s.desc, lb, best, 0, maxNodes, false
	x.dfs(0)
	return x.best, !x.exhausted
}

// dfs places desc[j] on every machine that can still beat the
// incumbent, symmetric machines once, and recurses.
func (x *exactSearch) dfs(j int) {
	if x.exhausted {
		return
	}
	x.nodes++
	if x.nodes > x.maxNodes {
		x.exhausted = true
		return
	}
	loads, desc := x.loads, x.desc
	if j == len(desc) {
		max := 0.0
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		if max < x.best {
			x.best = max
		}
		return
	}
	// Bound: desc[j] must go somewhere, and the least loaded machine is
	// the cheapest place for it.
	minLoad := loads[0]
	for _, l := range loads[1:] {
		if l < minLoad {
			minLoad = l
		}
	}
	if minLoad+desc[j] >= x.best-1e-12 {
		return // every continuation exceeds the incumbent
	}
	seenEmpty := false
	for i := range loads {
		if loads[i] == 0 {
			if seenEmpty {
				continue // machines are identical: one empty machine suffices
			}
			seenEmpty = true
		}
		if loads[i]+desc[j] >= x.best-1e-12 {
			continue
		}
		// Symmetry: skip machines with the same load as an earlier one.
		dup := false
		for i2 := 0; i2 < i; i2++ {
			//lint:ignore floatcmp symmetry pruning wants bit-identical loads; near-equal machines are legitimately distinct
			if loads[i2] == loads[i] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		loads[i] += desc[j]
		x.dfs(j + 1)
		loads[i] -= desc[j]
		if x.exhausted {
			return
		}
		if nearlyEqual(x.best, x.lb) {
			return // proved optimal
		}
	}
}
