package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/rng"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLowerBoundsBasics(t *testing.T) {
	times := []float64{5, 3, 3, 3}
	if got := SumLowerBound(times, 2); got != 7 {
		t.Errorf("SumLowerBound = %v, want 7", got)
	}
	if got := MaxLowerBound(times); got != 5 {
		t.Errorf("MaxLowerBound = %v, want 5", got)
	}
	// m=2: 3 largest are 5,3,3; the 2 smallest of those sum to 6.
	if got := PairLowerBound(times, 2); got != 6 {
		t.Errorf("PairLowerBound = %v, want 6", got)
	}
	if got := LowerBound(times, 2); got != 7 {
		t.Errorf("LowerBound = %v, want 7", got)
	}
}

func TestPairLowerBoundFewTasks(t *testing.T) {
	if got := PairLowerBound([]float64{4, 2}, 3); got != 0 {
		t.Errorf("PairLowerBound with n<=m = %v, want 0", got)
	}
}

func TestLPTClassic(t *testing.T) {
	// Graham's classic LPT example: times 7,7,6,6,5,5,4,4,4 on 3
	// machines. Optimum is 16; LPT also achieves 16 here.
	times := []float64{7, 7, 6, 6, 5, 5, 4, 4, 4}
	got, mapping := LPT(times, 3)
	if got != 16 {
		t.Errorf("LPT makespan = %v, want 16", got)
	}
	loads := make([]float64, 3)
	for j, i := range mapping {
		loads[i] += times[j]
	}
	max := 0.0
	for _, l := range loads {
		max = math.Max(max, l)
	}
	if max != got {
		t.Errorf("mapping inconsistent with makespan: %v vs %v", max, got)
	}
}

func TestExactSmall(t *testing.T) {
	cases := []struct {
		times []float64
		m     int
		want  float64
	}{
		{[]float64{3, 3, 2, 2, 2}, 2, 6},
		{[]float64{1, 1, 1, 1}, 2, 2},
		{[]float64{10}, 3, 10},
		{[]float64{5, 4, 3, 3, 3}, 3, 7},
		{[]float64{8, 7, 6, 5, 4}, 2, 15},
		// LPT is suboptimal here: LPT gives 11 (3+3+5? no) — classic
		// instance 5,5,4,4,3,3 on 2 machines: optimum 12.
		{[]float64{5, 5, 4, 4, 3, 3}, 2, 12},
	}
	for _, c := range cases {
		got, ok := Exact(c.times, c.m, 1_000_000)
		if !ok {
			t.Errorf("Exact(%v, %d) exhausted budget", c.times, c.m)
			continue
		}
		if !almostEq(got, c.want) {
			t.Errorf("Exact(%v, %d) = %v, want %v", c.times, c.m, got, c.want)
		}
	}
}

func TestExactBeatsLPTWhenPossible(t *testing.T) {
	// 2 machines, tasks 3,3,2,2,2: LPT yields 7 (3+2+2 vs 3+2),
	// optimum is 6.
	times := []float64{3, 3, 2, 2, 2}
	lpt, _ := LPT(times, 2)
	if lpt != 7 {
		t.Fatalf("LPT = %v, want 7 (sanity)", lpt)
	}
	exact, ok := Exact(times, 2, 1_000_000)
	if !ok || exact != 6 {
		t.Fatalf("Exact = %v (ok=%v), want 6", exact, ok)
	}
}

// multiFit is MULTIFIT on unsorted times with every bisection step
// taken: the sort-then-call entry the tests reach multiFitDesc by.
func multiFit(times []float64, m int, iterations int) float64 {
	var s solveScratch
	s.sortDesc(times)
	lo := lowerBoundDesc(times, s.desc, m)
	hi := lptMakespanDesc(s.desc, m, &s.loads)
	return multiFitDesc(s.desc, m, iterations, lo, hi, math.Inf(1), &s.ffd)
}

func TestMultiFitUpperBound(t *testing.T) {
	times := []float64{3, 3, 2, 2, 2}
	mf := multiFit(times, 2, 30)
	if mf < 6-1e-9 {
		t.Fatalf("MultiFit = %v below optimum 6", mf)
	}
	if mf > 7+1e-9 {
		t.Fatalf("MultiFit = %v above LPT bound 7", mf)
	}
}

func TestEstimateExactForSmall(t *testing.T) {
	r := Estimate([]float64{3, 3, 2, 2, 2}, 2, 20)
	if !r.Exact || !almostEq(r.Value(), 6) {
		t.Fatalf("Estimate = %+v, want exact 6", r)
	}
}

func TestEstimateTrivialCases(t *testing.T) {
	r := Estimate([]float64{4, 2}, 4, 20)
	if !r.Exact || r.Value() != 4 || r.Method != "trivial" {
		t.Fatalf("n<=m Estimate = %+v", r)
	}
	r = Estimate([]float64{4, 2}, 1, 20)
	if !r.Exact || r.Value() != 6 {
		t.Fatalf("m=1 Estimate = %+v", r)
	}
	r = Estimate(nil, 3, 20)
	if !r.Exact || r.Value() != 0 {
		t.Fatalf("empty Estimate = %+v", r)
	}
}

func TestEstimateBoundsBracketForLarge(t *testing.T) {
	src := rng.New(1)
	times := make([]float64, 200)
	for i := range times {
		times[i] = src.Uniform(1, 100)
	}
	r := Estimate(times, 7, 20)
	if r.Lower > r.Upper {
		t.Fatalf("bracket inverted: %+v", r)
	}
	if r.Upper/r.Lower > 13.0/11+1e-6 {
		t.Fatalf("bracket wider than MULTIFIT guarantee: %+v", r)
	}
}

func TestExactMatchesBruteForceProperty(t *testing.T) {
	// Compare branch-and-bound with exhaustive enumeration on tiny
	// instances.
	bruteForce := func(times []float64, m int) float64 {
		n := len(times)
		best := math.Inf(1)
		loads := make([]float64, m)
		var rec func(j int)
		rec = func(j int) {
			if j == n {
				max := 0.0
				for _, l := range loads {
					max = math.Max(max, l)
				}
				best = math.Min(best, max)
				return
			}
			for i := 0; i < m; i++ {
				loads[i] += times[j]
				rec(j + 1)
				loads[i] -= times[j]
			}
		}
		rec(0)
		return best
	}
	src := rng.New(7)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%7) + 2
		m := int(mRaw%3) + 2
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(src.Intn(20) + 1)
		}
		want := bruteForce(times, m)
		got, ok := Exact(times, m, 10_000_000)
		return ok && almostEq(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsSandwichProperty(t *testing.T) {
	// LowerBound ≤ Exact ≤ MultiFit ≤ LPT for random instances.
	src := rng.New(21)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%10) + 3
		m := int(mRaw%4) + 2
		times := make([]float64, n)
		for i := range times {
			times[i] = src.Uniform(1, 50)
		}
		lb := LowerBound(times, m)
		exact, ok := Exact(times, m, 10_000_000)
		if !ok {
			return false
		}
		mf := multiFit(times, m, 30)
		lpt, _ := LPT(times, m)
		const tol = 1e-9
		return lb <= exact+tol && exact <= mf+tol && mf <= lpt+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	src := rng.New(5)
	times := make([]float64, 40)
	for i := range times {
		times[i] = src.Uniform(1, 100)
	}
	v, ok := Exact(times, 5, 10)
	if ok {
		t.Skip("search closed within 10 nodes; instance accidentally trivial")
	}
	// Even when exhausted, the incumbent must be a feasible makespan:
	// at least the lower bound.
	if v < LowerBound(times, 5)-1e-9 {
		t.Fatalf("exhausted incumbent %v below lower bound", v)
	}

	// Estimate's own search counts each attempt in opt.exact_solves and
	// each one that runs out of nodes, leaving the bracket open, in
	// opt.budget_exhausted; a memo hit counts neither.
	exhausted := obs.GetCounter("opt.budget_exhausted")
	for _, c := range []struct {
		n, m   int
		seed   uint64
		method string
		runOut int64
	}{
		{12, 3, 43, "exact", 0}, // proved within the budget
		{20, 4, 5, "bounds", 1}, // runs out of its 1M nodes
		{20, 8, 5, "bounds", 1}, // the costliest shape per node: out of its 500k
	} {
		times := randomTimes(c.n, c.seed)
		ResetCache()
		solves, runOut := exactSolves.Load(), exhausted.Load()
		for range 2 {
			if r := Estimate(times, c.m, 0); r.Method != c.method {
				t.Fatalf("n=%d, m=%d: answered by %q, want %q", c.n, c.m, r.Method, c.method)
			}
		}
		if d := exactSolves.Load() - solves; d != 1 {
			t.Errorf("n=%d, m=%d: opt.exact_solves moved by %d, want 1", c.n, c.m, d)
		}
		if d := exhausted.Load() - runOut; d != c.runOut {
			t.Errorf("n=%d, m=%d: opt.budget_exhausted moved by %d, want %d", c.n, c.m, d, c.runOut)
		}
	}
}

func BenchmarkLPT1000(b *testing.B) {
	src := rng.New(1)
	times := make([]float64, 1000)
	for i := range times {
		times[i] = src.Uniform(1, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LPT(times, 16)
	}
}

func BenchmarkMultiFit1000(b *testing.B) {
	src := rng.New(1)
	times := make([]float64, 1000)
	for i := range times {
		times[i] = src.Uniform(1, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiFit(times, 16, 20)
	}
}

func BenchmarkExact14(b *testing.B) {
	src := rng.New(1)
	times := make([]float64, 14)
	for i := range times {
		times[i] = src.Uniform(1, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(times, 4, 20_000_000)
	}
}
