package opt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// sameBits fails the test unless got and want are the same float64 bit
// for bit: the cold-solve kernels promise identity with the kernels
// they replaced, not closeness.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), oracle %v (%#x)", what,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkKernels compares every rewritten kernel with its oracle on one
// instance, and the estimate also with fullBracketEstimate. exactLimit
// bounds the branch and bound the same way on both sides.
func checkKernels(t *testing.T, times []float64, m, exactLimit int) {
	t.Helper()
	sameBits(t, "KarmarkarKarp", karmarkarKarp(times, m), oracleKarmarkarKarp(times, m))
	if len(times) == 0 {
		return
	}
	sameBits(t, "MultiFit", multiFit(times, m, 24), oracleMultiFit(times, m, 24))

	desc := appendDesc(times, nil)
	lo, hi := LowerBound(times, m), oracleLPT(times, m)
	sameBits(t, "one-sort lower bound", lowerBoundDesc(times, desc, m), lo)
	var x ffdIndex
	for _, c := range []float64{lo, hi, (lo + hi) / 2, (3*lo + hi) / 4, lo * (1 - 1e-12), desc[0], desc[0] / 2, 0} {
		if got, want := ffdFits(desc, m, c, &x), oracleFFDFits(desc, m, c); got != want {
			t.Fatalf("ffdFits(capacity %v) = %v, oracle %v", c, got, want)
		}
	}

	if len(times) <= m {
		return // Estimate answers these without a solve
	}
	got := estimateUncached(times, m, exactLimit)
	sameResult(t, got, oracleEstimate(times, m, exactLimit))
	if len(times) > exactLimit {
		// MULTIFIT's early stop against its 24 steps on the same kernels;
		// up to exactLimit it takes them all, which the oracle holds.
		full, _ := fullBracketEstimate(times, m, exactLimit)
		sameResult(t, got, full)
	}
	if len(times) <= exactLimit {
		gv, gok := Exact(times, m, 200_000)
		wv, wok := oracleExact(times, m, 200_000)
		sameBits(t, "Exact", gv, wv)
		if gok != wok {
			t.Fatalf("Exact ok = %v, oracle %v", gok, wok)
		}
	}
}

// TestEstimateKernelsMatchOracle is the differential test of the cold
// solve: the two-queue sparse differencing, bin-at-a-time first fit and
// the single shared sort against the dense slab, the linear bin walk
// and the sort-per-kernel pass they replaced, over the shapes where the
// representations differ most — ties (many short vectors alive at
// once), zeros (stored loads that are zero), n ≤ m and m > n/2 (no or
// few full vectors), n = m+1 (the first overlap is the last merge),
// m = 2 (every merged vector is full) — mid sizes just above the exact
// search, and the benchmark's shapes.
func TestEstimateKernelsMatchOracle(t *testing.T) {
	src := rng.New(14)
	type gen struct {
		name string
		draw func() float64
	}
	gens := []gen{
		{"uniform", func() float64 { return src.Uniform(1, 100) }},
		{"small-int", func() float64 { return float64(1 + src.Intn(4)) }},
		{"thirds", func() float64 { return float64(1+src.Intn(30)) / 3 }},
		{"narrow", func() float64 { return src.Uniform(50, 51) }},
		{"zeros", func() float64 { return float64(src.Intn(3)) * src.Uniform(0, 9) }},
		{"skewed", func() float64 { return math.Exp(src.Uniform(-8, 8)) }},
		{"equal", func() float64 { return 7.25 }},
	}
	shapes := [][2]int{
		{1, 2}, {2, 2}, {3, 2}, {9, 2}, {70, 2}, // m = 2
		{3, 5}, {5, 5}, {6, 5}, {7, 6}, {17, 16}, // n ≤ m, n = m+1
		{12, 7}, {66, 34}, {90, 46}, {100, 64}, // m > n/2
		{24, 6}, {40, 5}, {60, 6}, // just above the exact search
		{11, 3}, {61, 4}, {64, 5}, {97, 8}, {300, 7}, {257, 16}, {1000, 33},
	}
	for _, g := range gens {
		for _, sh := range shapes {
			n, m := sh[0], sh[1]
			t.Run(fmt.Sprintf("%s/n=%d,m=%d", g.name, n, m), func(t *testing.T) {
				for rep := 0; rep < 3; rep++ {
					times := make([]float64, n)
					for i := range times {
						times[i] = g.draw()
					}
					checkKernels(t, times, m, 12)
				}
			})
		}
	}
	for _, sh := range [][2]int{{10_000, 64}, {2_000, 512}, {200, 8}} {
		n, m := sh[0], sh[1]
		t.Run(fmt.Sprintf("bench/n=%d,m=%d", n, m), func(t *testing.T) {
			for _, g := range gens[:3] {
				times := make([]float64, n)
				for i := range times {
					times[i] = g.draw()
				}
				checkKernels(t, times, m, 12)
			}
		})
	}
}

// TestKarmarkarKarpCompactsUnderTies drives the differencing arena
// through its copy-and-swap: all-equal times pair up level by level, so
// every level re-allocates every vector and the bump arena fills
// several times over.
func TestKarmarkarKarpCompactsUnderTies(t *testing.T) {
	for _, sh := range [][2]int{{4096, 64}, {3000, 1000}, {1025, 1024}} {
		times := make([]float64, sh[0])
		for i := range times {
			times[i] = 1.5
		}
		sameBits(t, fmt.Sprint("KarmarkarKarp ", sh), karmarkarKarp(times, sh[1]), oracleKarmarkarKarp(times, sh[1]))
	}
}

// fuzzTimes turns fuzz bytes into processing times: one or two bytes a
// time, scaled so that sums round (thirds, tenths) or do not (integers).
// Byte values repeat and include zero, so ties and zero times are the
// common case rather than the corner.
func fuzzTimes(data []byte, shape uint8) []float64 {
	scale := []float64{1, 0.1, 1.0 / 3, 1e-3}[shape&3]
	wide := shape&4 != 0
	var times []float64
	for i := 0; i < len(data) && len(times) < 512; i++ {
		v := float64(data[i])
		if wide && i+1 < len(data) {
			i++
			v = v*256 + float64(data[i])
		}
		times = append(times, v*scale)
	}
	return times
}

// FuzzEstimateKernels searches for an instance on which a cold-solve
// kernel and its oracle disagree in any bit. The committed corpus under
// testdata/fuzz seeds it with the differential test's corners (m = 2,
// n ≤ m, n = m+1, m > n/2, zeros, duplicate-heavy and all-equal times),
// an open bracket at n = 36, m = 12, just above the exact search, and
// TestKarmarkarKarpTieOrderStable's instance.
func FuzzEstimateKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint16, shape uint8) {
		m := 2 + int(mRaw%640)
		checkKernels(t, fuzzTimes(data, shape), m, 10)
	})
}

// TestColdSolveMovesItsCounters pins the miss-path observability: a
// cold Estimate runs the opt.solve timer once and moves the merge and
// probe counters; the memo hit that follows moves none of them.
func TestColdSolveMovesItsCounters(t *testing.T) {
	ResetCache()
	times := randomTimes(300, 77)
	read := func() [5]int64 {
		return [5]int64{
			obs.GetTimer("opt.solve").Count(),
			obs.GetCounter("opt.kk_union_merges").Load(),
			obs.GetCounter("opt.kk_overlap_merges").Load(),
			obs.GetCounter("opt.ffd_probes").Load(),
			obs.GetCounter("opt.multifit_runs").Load(),
		}
	}
	before := read()
	Estimate(times, 8, 0)
	cold := read()
	if cold[0] != before[0]+1 {
		t.Errorf("opt.solve count moved by %d on a miss, want 1", cold[0]-before[0])
	}
	if unions, overlaps := cold[1]-before[1], cold[2]-before[2]; unions <= 0 || overlaps <= 0 || unions+overlaps != 299 {
		t.Errorf("merge counters moved by %d unions + %d overlaps, want both kinds and 299 merges", unions, overlaps)
	}
	if cold[3] <= before[3] {
		t.Errorf("opt.ffd_probes did not move on a miss")
	}
	if cold[4] != before[4]+1 {
		t.Errorf("opt.multifit_runs moved by %d on a miss, want 1", cold[4]-before[4])
	}
	Estimate(times, 8, 0)
	if warm := read(); warm != cold {
		t.Errorf("a memo hit moved the solve metrics: %v -> %v", cold, warm)
	}
}
