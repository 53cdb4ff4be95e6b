package main

import "testing"

// TestCompareVerdicts walks the README's rules: a gain needs nine wins
// in ten and medians further apart than the base's quartiles; a median
// worse by more than the bound is a regression; a base whose own
// quartiles are wider than the bound resolves nothing unless every run
// of one side beats every run of the other.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		base, change []float64
		higherBetter bool
		bound        float64
		want         string
		wins         int
	}{
		{"clear gain", steady, scale(steady, 1.5), true, 0.25, "gain", 10},
		{"lower is better", steady, scale(steady, 0.7), false, 0.05, "gain", 10},
		{"eight wins are not enough", steady, append(scale(steady[:8], 1.5), 90, 90), true, 0.25, "within bound", 8},
		{"inside the quartiles", steady, scale(steady, 1.005), true, 0.25, "within bound", 10},
		{"regression", steady, scale(steady, 0.7), true, 0.25, "regression", 0},
		{"worse inside the bound", steady, scale(steady, 0.9), true, 0.25, "within bound", 0},
		{"noisy base resolves nothing", noisy, scale(noisy, 0.7), true, 0.25, "unresolved", 0},
		{"noisy base, every run better", noisy, scale(noisy, 3), true, 0.25, "gain", 10},
		{"noisy base, every run worse", noisy, scale(noisy, 0.4), true, 0.25, "regression", 0},
		{"noisy base, every run worse, lower is better", noisy, scale(noisy, 3), false, 0.25, "regression", 0},
	} {
		c := compare(tc.base, tc.change, tc.higherBetter, tc.bound)
		if c.verdict != tc.want || c.wins != tc.wins {
			t.Errorf("%s: %s with %d wins (shift %+.3f), want %s with %d", tc.name, c.verdict, c.wins, c.shift, tc.want, tc.wins)
		}
	}
}
