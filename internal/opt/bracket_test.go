package opt

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// fullBracketEstimate is estimateUncached with MULTIFIT's bisection
// taking all 24 steps before Karmarkar–Karp runs, on the production
// kernels: the bracket the early stop must reproduce bit for bit. It
// also returns the first-fit probes that full MULTIFIT made.
func fullBracketEstimate(times []float64, m int, exactLimit int) (Result, int64) {
	var s solveScratch
	n := len(times)
	lb, seed := s.bracket(times, m)
	ub := seed
	if kk := s.kk.run(s.desc, m); kk < ub {
		ub = kk
	}
	if nearlyEqual(lb, ub) {
		return Result{Lower: lb, Upper: lb, Exact: true, Method: "bounds"}, s.ffd.probes
	}
	if n <= exactLimit {
		if v, ok := s.exact(m, lb, seed, exactBudget(m)); ok {
			return Result{Lower: v, Upper: v, Exact: true, Method: "exact"}, s.ffd.probes
		}
	}
	return Result{Lower: lb, Upper: ub, Method: "bounds"}, s.ffd.probes
}

// sameResult fails the test unless got is want bit for bit.
func sameResult(t *testing.T, got, want Result) {
	t.Helper()
	sameBits(t, "estimate lower", got.Lower, want.Lower)
	sameBits(t, "estimate upper", got.Upper, want.Upper)
	if got.Exact != want.Exact || got.Method != want.Method {
		t.Fatalf("estimate = %+v, want %+v", got, want)
	}
}

// TestBracketStopMatchesFullBracket holds Estimate's early-stopping
// MULTIFIT to the full 24-step bracket on the four shapes the stop
// treats differently: n ≫ m, where KK beats MULTIFIT and the stop cuts
// most first-fit passes; serve-solve's n=2k, m=512, where MULTIFIT
// wins and must run to the end; n ≤ 20, the exact path, which keeps
// the full bracket as its seed; and a mid size just above the exact
// path, which stops like n ≫ m. Where MULTIFIT wins its lower end
// never reaches the stop, so it makes every probe the full bracket
// makes. Each shape first checks it is
// the case it names, so a change of instance cannot quietly test
// another one.
func TestBracketStopMatchesFullBracket(t *testing.T) {
	probes := obs.GetCounter("opt.ffd_probes")
	cases := []struct {
		name        string
		n, m        int
		seeds       []uint64
		winner      string // "kk" or "multifit": whose makespan is lower; "" is not checked
		method      string
		fewerProbes bool // the stop must save first-fit passes
	}{
		{"kk-wins/n=10k,m=64", 10_000, 64, []uint64{1, 2, 3}, "kk", "bounds", true},
		{"kk-wins/n=1k,m=16", 1_000, 16, []uint64{4, 5}, "kk", "bounds", true},
		{"multifit-wins/n=2k,m=512", 2_000, 512, []uint64{6, 7}, "multifit", "bounds", false},
		{"exact/n=15,m=4", 15, 4, []uint64{8, 9, 10}, "", "exact", false},
		{"mid/n=30,m=4", 30, 4, []uint64{11}, "kk", "bounds", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range c.seeds {
				times := randomTimes(c.n, seed)
				desc := appendDesc(times, nil)
				lb := LowerBound(times, c.m)
				var x ffdIndex
				var diff ldm
				mf := multiFitDesc(desc, c.m, 24, lb, oracleLPT(times, c.m), math.Inf(1), &x)
				kk := diff.run(desc, c.m)
				winner := "multifit"
				if kk < mf {
					winner = "kk"
				}
				if c.winner != "" && winner != c.winner {
					t.Fatalf("seed %d: KK %v, MULTIFIT %v: %s wins, want %s", seed, kk, mf, winner, c.winner)
				}
				want, fullProbes := fullBracketEstimate(times, c.m, 20)
				if want.Method != c.method {
					t.Fatalf("seed %d: answered by %q, want %q", seed, want.Method, c.method)
				}
				before := probes.Load()
				got := estimateUncached(times, c.m, 20)
				sameResult(t, got, want)
				made := probes.Load() - before
				t.Logf("seed %d: %d first-fit probes, the full bracket %d", seed, made, fullProbes)
				if c.fewerProbes && made >= fullProbes {
					t.Errorf("seed %d: %d first-fit probes, the full bracket makes %d", seed, made, fullProbes)
				}
				if c.winner == "multifit" && made != fullProbes {
					t.Errorf("seed %d: %d first-fit probes where MULTIFIT wins, want the full bracket's %d", seed, made, fullProbes)
				}
			}
		})
	}
}
