// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, standard deviation, quantiles,
// min/max, and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	// N is the sample size.
	N int
	// Mean is the arithmetic mean.
	Mean float64
	// Std is the sample standard deviation (n−1 denominator).
	Std float64
	// Min and Max are the sample extremes.
	Min, Max float64
	// P50, P90, P99, P999 are empirical quantiles (linear
	// interpolation). P999 exists for response-time distributions (the
	// open-system streaming metrics), where the paper-adjacent queueing
	// literature reports the 99.9th percentile tail.
	P50, P90, P99, P999 float64
}

// Summarize computes a Summary of xs. It returns the zero Summary for
// an empty sample and panics if any sample value is NaN: a NaN would
// sort into an unspecified position and silently corrupt every
// quantile, so it is rejected up front — the same contract Quantile
// applies to a NaN q.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	sum := 0.0
	for i, x := range xs {
		if math.IsNaN(x) {
			panic(fmt.Sprintf("stats: NaN sample value at index %d", i))
		}
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	// The loop above already vetted every sample, so the sorted copy
	// can skip Quantile's NaN re-scan.
	s.P50 = quantileSorted(sorted, 0.50)
	s.P90 = quantileSorted(sorted, 0.90)
	s.P99 = quantileSorted(sorted, 0.99)
	s.P999 = quantileSorted(sorted, 0.999)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation. It panics if sorted is empty, q
// is NaN or outside [0, 1], or any sample value is NaN — NaN fails
// every ordered comparison, so sorting leaves it in an unspecified
// position and interpolation would return garbage.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	for i, x := range sorted {
		if math.IsNaN(x) {
			panic(fmt.Sprintf("stats: NaN sample value at index %d", i))
		}
	}
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile without the NaN sample scan, for callers
// (Summarize) that already vetted the data.
func quantileSorted(sorted []float64, q float64) float64 {
	// NaN fails every ordered comparison, so the range check below
	// would silently accept it and index with garbage; reject it first.
	if math.IsNaN(q) {
		panic("stats: quantile is NaN")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CI95 returns the half-width of a 95% normal-approximation
// confidence interval for the mean. A sample of fewer than two points
// has no dispersion estimate, so N == 0 and N == 1 both return
// exactly 0 — by contract, not by accident of the Std field.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String renders the summary compactly. The empty sample renders as a
// fixed marker string rather than a row of meaningless zeros; a
// single-point sample renders normally with ±0 and std=0.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0 (empty sample)"
	}
	return fmt.Sprintf("n=%d mean=%.4g±%.2g std=%.3g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.CI95(), s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}
