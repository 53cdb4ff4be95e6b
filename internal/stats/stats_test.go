package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s.CI95() != 0 {
		t.Fatalf("empty CI = %v", s.CI95())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.P50 != 7 || s.P99 != 7 || s.P999 != 7 {
		t.Fatalf("single summary = %+v", s)
	}
	// N==1 contract: no dispersion estimate, so the CI half-width is
	// exactly zero and String renders the ±0 explicitly.
	if s.CI95() != 0 {
		t.Fatalf("single-sample CI = %v, want 0", s.CI95())
	}
	if got := s.String(); !strings.Contains(got, "n=1") || !strings.Contains(got, "±0") {
		t.Fatalf("single-sample String = %q", got)
	}
}

func TestSummarizeRejectsNaNSamples(t *testing.T) {
	// Regression: NaN samples used to be sorted silently (NaN fails
	// every comparison, so sort.Float64s leaves it in an unspecified
	// position) and every quantile came out garbage. They now panic,
	// matching the existing NaN-q contract.
	cases := [][]float64{
		{math.NaN()},
		{1, math.NaN(), 3},
		{1, 2, math.NaN()},
	}
	for _, xs := range cases {
		xs := xs
		t.Run(fmt.Sprintf("%v", xs), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Summarize(%v): expected panic", xs)
				}
			}()
			Summarize(xs)
		})
	}
}

func TestQuantileRejectsNaNSamples(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile with NaN sample: expected panic")
		}
	}()
	Quantile([]float64{1, math.NaN(), 3}, 0.5)
}

func TestStringIncludesP99(t *testing.T) {
	// Regression: Summarize computed P99 but String never printed it.
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if got := s.String(); !strings.Contains(got, "p99=99") {
		t.Fatalf("String missing p99: %q", got)
	}
}

func TestStringEmptySample(t *testing.T) {
	// N==0 contract: a fixed marker, not a row of meaningless zeros.
	if got := (Summary{}).String(); got != "n=0 (empty sample)" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestP999OrderingAndValue(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.P99 > s.P999 || s.P999 > s.Max {
		t.Fatalf("quantile ordering violated: p99=%v p999=%v max=%v", s.P99, s.P999, s.Max)
	}
	if math.Abs(s.P999-0.999*9999) > 1e-9 {
		t.Fatalf("p999 = %v, want %v", s.P999, 0.999*9999)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if got := Quantile(sorted, 0); got != 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 10 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
	}{
		{"empty sample", nil, 0.5},
		{"negative q", []float64{1}, -0.1},
		{"q above one", []float64{1}, 1.1},
		{"NaN q", []float64{1, 2}, math.NaN()},
		{"negative zero minus eps", []float64{1, 2}, math.Nextafter(0, -1)},
		{"one plus eps", []float64{1, 2}, math.Nextafter(1, 2)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v, %v): expected panic", tc.sorted, tc.q)
				}
			}()
			Quantile(tc.sorted, tc.q)
		})
	}
}

func TestQuantileBoundaryValuesAccepted(t *testing.T) {
	// The extreme legal quantiles must not panic and must hit the ends.
	sorted := []float64{2, 4, 8}
	if got := Quantile(sorted, 0); got != 2 {
		t.Fatalf("q=0: %v, want 2", got)
	}
	if got := Quantile(sorted, 1); got != 8 {
		t.Fatalf("q=1: %v, want 8", got)
	}
	if got := Quantile(sorted, math.Copysign(0, -1)); got != 2 {
		t.Fatalf("q=-0: %v, want 2", got)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.P999 && s.P999 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := Summarize([]float64{1, 2, 3, 4})
	var big []float64
	for i := 0; i < 64; i++ {
		big = append(big, []float64{1, 2, 3, 4}...)
	}
	if Summarize(big).CI95() >= small.CI95() {
		t.Fatal("CI did not shrink with sample size")
	}
}
