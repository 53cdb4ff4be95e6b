package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// ArrivalSpec describes an arrival process for the open-system
// simulation mode: instead of all n tasks being released at time zero
// (the paper's batch model), task j enters the system at a generated
// arrival time. The processes cover the settings of the open-system
// replication literature (Wang/Joshi/Wornell arXiv:1404.1328,
// Sun/Koksal/Shroff arXiv:1603.07322): memoryless Poisson traffic,
// bursty Markov-modulated traffic, and replayed real traces.
type ArrivalSpec struct {
	// Process selects the generator; see ArrivalProcesses.
	Process string
	// Rate is the mean arrival rate λ (tasks per simulated time unit).
	// Required (> 0) for the stochastic processes, ignored by "trace"
	// and "batch".
	Rate float64
	// Seed feeds the deterministic RNG.
	Seed uint64
	// BurstFactor multiplies Rate while an MMPP burst is active;
	// 0 selects the default 8. Ignored by other processes.
	BurstFactor float64
	// BurstFraction is the long-run fraction of time the MMPP spends in
	// the burst state; 0 selects the default 0.1. Ignored by other
	// processes.
	BurstFraction float64
	// Times holds explicit arrival times for the "trace" process, one
	// per task, non-negative and finite (any order; generation sorts a
	// copy). Ignored by other processes.
	Times []float64
}

// ArrivalGen produces n non-decreasing, non-negative arrival times.
type ArrivalGen func(n int, spec ArrivalSpec, src *rng.Source) ([]float64, error)

// ArrivalProcesses is the registry of named arrival processes.
var ArrivalProcesses = map[string]ArrivalGen{
	"batch":   BatchArrivals,
	"poisson": PoissonArrivals,
	"mmpp":    MMPPArrivals,
	"trace":   TraceArrivals,
}

// ArrivalNames returns the registered process names in sorted order.
func ArrivalNames() []string {
	names := make([]string, 0, len(ArrivalProcesses))
	for name := range ArrivalProcesses {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Arrivals draws n arrival times from the named process. The returned
// slice is sorted non-decreasing with Times[0] ≥ 0; index i is the
// arrival time of the i-th admitted task (callers map it onto task IDs
// in admission order). It returns an error for unknown processes,
// non-positive n, or invalid process parameters.
func Arrivals(n int, spec ArrivalSpec) ([]float64, error) {
	gen, ok := ArrivalProcesses[spec.Process]
	if !ok {
		return nil, fmt.Errorf("workload: unknown arrival process %q (have %v)", spec.Process, ArrivalNames())
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: n must be positive, got %d", n)
	}
	times, err := gen(n, spec, rng.New(spec.Seed))
	if err != nil {
		return nil, err
	}
	if err := CheckArrivals(times, n); err != nil {
		return nil, fmt.Errorf("workload: %s generator produced invalid times: %w", spec.Process, err)
	}
	return times, nil
}

// CheckArrivals validates an arrival-time slice against a task count:
// exactly n entries, every time finite and non-negative, and the
// sequence non-decreasing. It is the shared gate for generated times,
// trace input, and the serving layer's open-system requests.
func CheckArrivals(times []float64, n int) error {
	if len(times) != n {
		return fmt.Errorf("workload: %d arrival times for %d tasks", len(times), n)
	}
	prev := 0.0
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("workload: arrival %d is %v (want finite, non-negative)", i, t)
		}
		if t < prev {
			return fmt.Errorf("workload: arrival %d (%v) precedes arrival %d (%v)", i, t, i-1, prev)
		}
		prev = t
	}
	return nil
}

// BatchArrivals releases every task at time zero — the degenerate
// closed-system case. An open-system run under batch arrivals and no
// replica duplication reproduces the batch simulator exactly (the
// metamorphic anchor of the open mode).
func BatchArrivals(n int, _ ArrivalSpec, _ *rng.Source) ([]float64, error) {
	return make([]float64, n), nil
}

// PoissonArrivals draws a homogeneous Poisson process of rate λ:
// i.i.d. exponential inter-arrival gaps with mean 1/λ, accumulated
// from time zero.
func PoissonArrivals(n int, spec ArrivalSpec, src *rng.Source) ([]float64, error) {
	if !(spec.Rate > 0) || math.IsInf(spec.Rate, 0) {
		return nil, fmt.Errorf("workload: poisson arrivals need a positive finite rate, got %v", spec.Rate)
	}
	times := make([]float64, n)
	t := 0.0
	for i := range times {
		t += src.Exp(spec.Rate)
		times[i] = t
	}
	return times, nil
}

// MMPPArrivals draws a two-state Markov-modulated Poisson process: a
// baseline state with rate λ·(1−f·b)/(1−f) chosen so the long-run mean
// rate stays λ, and a burst state with rate b·λ active a fraction f of
// the time. State sojourns are exponential with mean 10/λ in baseline
// and f/(1−f)·10/λ in burst. The result is bursty traffic with the
// same average intensity as the Poisson process — the shape that
// separates cancellation policies in the open-system experiments.
func MMPPArrivals(n int, spec ArrivalSpec, src *rng.Source) ([]float64, error) {
	if !(spec.Rate > 0) || math.IsInf(spec.Rate, 0) {
		return nil, fmt.Errorf("workload: mmpp arrivals need a positive finite rate, got %v", spec.Rate)
	}
	b := spec.BurstFactor
	if b <= 0 {
		b = 8
	}
	if b < 1 {
		return nil, fmt.Errorf("workload: mmpp burst factor %v < 1", b)
	}
	f := spec.BurstFraction
	if f <= 0 {
		f = 0.1
	}
	if f >= 1 {
		return nil, fmt.Errorf("workload: mmpp burst fraction %v outside (0,1)", f)
	}
	if f*b >= 1 {
		return nil, fmt.Errorf("workload: mmpp burst fraction %v times factor %v must stay below 1 (baseline rate would be non-positive)", f, b)
	}
	baseRate := spec.Rate * (1 - f*b) / (1 - f)
	burstRate := spec.Rate * b
	meanBase := 10 / spec.Rate          // baseline sojourn
	meanBurst := meanBase * f / (1 - f) // burst sojourn keeping fraction f

	times := make([]float64, n)
	t := 0.0
	inBurst := false
	// stateEnd is when the current modulating state expires.
	stateEnd := src.Exp(1 / meanBase)
	for i := range times {
		for {
			rate := baseRate
			if inBurst {
				rate = burstRate
			}
			gap := src.Exp(rate)
			if t+gap <= stateEnd {
				t += gap
				times[i] = t
				break
			}
			// The candidate arrival falls past the state switch: advance
			// to the switch and redraw in the next state (memorylessness
			// makes the discarded remainder exact, not an approximation).
			t = stateEnd
			inBurst = !inBurst
			mean := meanBase
			if inBurst {
				mean = meanBurst
			}
			stateEnd = t + src.Exp(1/mean)
		}
	}
	return times, nil
}

// TraceArrivals replays explicit arrival times (e.g. a recorded trace).
// The spec's Times are copied and sorted; validation of shape and
// values happens in Arrivals via CheckArrivals.
func TraceArrivals(n int, spec ArrivalSpec, _ *rng.Source) ([]float64, error) {
	if len(spec.Times) != n {
		return nil, fmt.Errorf("workload: trace has %d arrival times for %d tasks", len(spec.Times), n)
	}
	times := make([]float64, n)
	copy(times, spec.Times)
	sort.Float64s(times)
	return times, nil
}
