package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// lowerQuartile and upperQuartile are the 0.25- and 0.75-quantiles of
// an unsorted sample.
func lowerQuartile(xs []float64) float64 { return quantileOf(xs, 0.25) }
func upperQuartile(xs []float64) float64 { return quantileOf(xs, 0.75) }

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// samplesBeyond is the number of samples strictly above the q-quantile
// position of an n-sample.
func samplesBeyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// pickTail chooses the highest percentile of the ladder that still
// has minBeyond samples beyond it. ok is false when even the lowest
// rung lacks them; the lowest rung is returned then so a number can
// still be shown, marked invalid.
func pickTail(n int) (q float64, beyond int, ok bool) {
	for _, q = range tailLadder {
		if beyond = samplesBeyond(n, q); beyond >= minBeyond {
			return q, beyond, true
		}
	}
	return q, samplesBeyond(n, q), false
}

// geomean is the geometric mean of positive values; 0 when any value
// is not positive or the sample is empty, so a dead class cannot hide
// behind the others.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0: shares of counters that never moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
