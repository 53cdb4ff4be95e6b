package workload

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// mustArrivals is Arrivals but panics on error, for the tests'
// hard-coded specs.
func mustArrivals(n int, spec ArrivalSpec) []float64 {
	times, err := Arrivals(n, spec)
	if err != nil {
		panic(err)
	}
	return times
}

func TestArrivalNamesComplete(t *testing.T) {
	want := []string{"batch", "mmpp", "poisson", "trace"}
	if got := ArrivalNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ArrivalNames() = %v, want %v", got, want)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	// Every stochastic process must reproduce bit-for-bit under a fixed
	// seed and diverge under a different one.
	cases := []ArrivalSpec{
		{Process: "batch", Seed: 1},
		{Process: "poisson", Rate: 2, Seed: 1},
		{Process: "mmpp", Rate: 2, Seed: 1},
		{Process: "mmpp", Rate: 5, BurstFactor: 4, BurstFraction: 0.2, Seed: 1},
	}
	for _, spec := range cases {
		spec := spec
		t.Run(spec.Process, func(t *testing.T) {
			a := mustArrivals(500, spec)
			b := mustArrivals(500, spec)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different arrival streams")
			}
			if spec.Process == "batch" {
				return // seed-independent by construction
			}
			spec2 := spec
			spec2.Seed = spec.Seed + 1
			if reflect.DeepEqual(a, mustArrivals(500, spec2)) {
				t.Fatal("different seeds produced identical arrival streams")
			}
		})
	}
}

func TestArrivalsValidShape(t *testing.T) {
	for _, spec := range []ArrivalSpec{
		{Process: "batch", Seed: 3},
		{Process: "poisson", Rate: 0.5, Seed: 3},
		{Process: "mmpp", Rate: 0.5, Seed: 3},
		{Process: "trace", Times: []float64{4, 0, 2}},
	} {
		spec := spec
		t.Run(spec.Process, func(t *testing.T) {
			n := 200
			if spec.Process == "trace" {
				n = len(spec.Times)
			}
			times := mustArrivals(n, spec)
			if err := CheckArrivals(times, n); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPoissonMeanRate(t *testing.T) {
	// Law of large numbers sanity: with n i.i.d. Exp(λ) gaps the final
	// arrival time concentrates around n/λ. 20k samples with λ=4 keeps
	// the relative error well under 5% at this seed (deterministic, so
	// no flake risk — the bound only needs to hold for this draw).
	const n, rate = 20000, 4.0
	times := mustArrivals(n, ArrivalSpec{Process: "poisson", Rate: rate, Seed: 42})
	mean := times[n-1] / n
	if rel := math.Abs(mean-1/rate) / (1 / rate); rel > 0.05 {
		t.Fatalf("empirical mean gap %v vs 1/rate %v (rel err %v)", mean, 1/rate, rel)
	}
}

func TestMMPPMeanRateAndBurstiness(t *testing.T) {
	const n, rate = 50000, 4.0
	spec := ArrivalSpec{Process: "mmpp", Rate: rate, Seed: 7}
	times := mustArrivals(n, spec)
	// The modulation is rate-preserving: long-run mean rate stays λ.
	mean := times[n-1] / n
	if rel := math.Abs(mean-1/rate) / (1 / rate); rel > 0.05 {
		t.Fatalf("empirical mean gap %v vs 1/rate %v (rel err %v)", mean, 1/rate, rel)
	}
	// Burstiness: the squared coefficient of variation of inter-arrival
	// gaps must exceed the Poisson value of 1 by a clear margin.
	gaps := make([]float64, n-1)
	var sum float64
	for i := 1; i < n; i++ {
		gaps[i-1] = times[i] - times[i-1]
		sum += gaps[i-1]
	}
	gm := sum / float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		d := g - gm
		ss += d * d
	}
	scv := (ss / float64(len(gaps))) / (gm * gm)
	if scv < 1.5 {
		t.Fatalf("MMPP gaps SCV = %v, want > 1.5 (Poisson would be ~1)", scv)
	}
}

func TestTraceArrivalsSortsCopy(t *testing.T) {
	orig := []float64{4, 0, 2}
	times := mustArrivals(3, ArrivalSpec{Process: "trace", Times: orig})
	if !sort.Float64sAreSorted(times) {
		t.Fatalf("trace times not sorted: %v", times)
	}
	if want := []float64{4, 0, 2}; !reflect.DeepEqual(orig, want) {
		t.Fatalf("TraceArrivals mutated its input: %v", orig)
	}
}

func TestArrivalsErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		spec ArrivalSpec
		frag string
	}{
		{"unknown process", 5, ArrivalSpec{Process: "nope"}, "unknown arrival process"},
		{"non-positive n", 0, ArrivalSpec{Process: "batch"}, "must be positive"},
		{"poisson zero rate", 5, ArrivalSpec{Process: "poisson"}, "positive finite rate"},
		{"poisson inf rate", 5, ArrivalSpec{Process: "poisson", Rate: math.Inf(1)}, "positive finite rate"},
		{"mmpp zero rate", 5, ArrivalSpec{Process: "mmpp"}, "positive finite rate"},
		{"mmpp burst factor below one", 5, ArrivalSpec{Process: "mmpp", Rate: 1, BurstFactor: 0.5}, "burst factor"},
		{"mmpp burst fraction one", 5, ArrivalSpec{Process: "mmpp", Rate: 1, BurstFraction: 1}, "outside (0,1)"},
		{"mmpp saturated burst", 5, ArrivalSpec{Process: "mmpp", Rate: 1, BurstFactor: 20, BurstFraction: 0.5}, "below 1"},
		{"trace length mismatch", 3, ArrivalSpec{Process: "trace", Times: []float64{1}}, "arrival times for"},
		{"trace negative time", 2, ArrivalSpec{Process: "trace", Times: []float64{-1, 2}}, "non-negative"},
		{"trace NaN time", 2, ArrivalSpec{Process: "trace", Times: []float64{math.NaN(), 2}}, "non-negative"},
		{"trace inf time", 2, ArrivalSpec{Process: "trace", Times: []float64{1, math.Inf(1)}}, "non-negative"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Arrivals(tc.n, tc.spec)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestBatchArrivalsAllZero(t *testing.T) {
	for _, v := range mustArrivals(10, ArrivalSpec{Process: "batch"}) {
		if v != 0 {
			t.Fatalf("batch arrival %v != 0", v)
		}
	}
}
