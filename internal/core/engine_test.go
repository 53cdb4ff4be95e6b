package core

import (
	"math"
	"testing"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// referencePlan resolves a configuration to the placement and priority
// order its algorithm produces, the inputs the sim reference engines
// take directly.
func referencePlan(t *testing.T, in *task.Instance, cfg Config) (*placement.Placement, []int) {
	t.Helper()
	a, err := cfg.algorithm()
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	return p, a.Order(in)
}

// TestOpenSystemEngines holds the open-system pipeline against the
// float event-heap reference (sim.RunOpen) across strategies and
// cancellation policies: winning machines and cancellation counts must
// be identical and response times within the accumulated nanotick
// quantization. (Worker-count invariance is pinned on RunSharded
// itself, in sim/flat_open_test.go.)
func TestOpenSystemEngines(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 80, M: 12, Alpha: 1.8, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(55))
	arrive := workload.MustArrivals(in.N(), workload.ArrivalSpec{
		Process: "poisson", Rate: float64(in.M) / 3, Seed: 9,
	})
	cfgs := []OpenConfig{
		{Config: Config{Strategy: NoReplication}},
		{Config: Config{Strategy: ReplicateEverywhere}, Policy: sim.CancelOnCompletion, CancelCost: 0.25},
		{Config: Config{Strategy: Groups, Groups: 4}, Policy: sim.CancelOnStart},
		{Config: Config{Strategy: Groups, Groups: 4}, Policy: sim.CancelOnCompletion, CancelCost: 0.5},
	}
	eps := 1e-9 * float64(in.N()+1)
	for _, cfg := range cfgs {
		p, order := referencePlan(t, in, cfg.Config)
		want, err := sim.RunOpen(in, p, order, arrive, sim.OpenOptions{Policy: cfg.Policy, CancelCost: cfg.CancelCost})
		if err != nil {
			t.Fatalf("%v/%v: reference engine: %v", cfg.Strategy, cfg.Policy, err)
		}
		got, err := RunOpenSystem(in, arrive, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Strategy, cfg.Policy, err)
		}
		if got.Result.CancelledReplicas != want.CancelledReplicas {
			t.Fatalf("%v/%v: cancelled %d, reference %d", cfg.Strategy, cfg.Policy,
				got.Result.CancelledReplicas, want.CancelledReplicas)
		}
		for j := range want.Responses {
			ga, wa := got.Result.Schedule.Assignments[j], want.Schedule.Assignments[j]
			if ga.Machine != wa.Machine {
				t.Fatalf("%v/%v: task %d machine %d, reference %d",
					cfg.Strategy, cfg.Policy, j, ga.Machine, wa.Machine)
			}
			if math.Abs(got.Result.Responses[j]-want.Responses[j]) > eps {
				t.Fatalf("%v/%v: task %d response drifts beyond %v from the reference",
					cfg.Strategy, cfg.Policy, j, eps)
			}
		}
		if math.Abs(got.Result.WastedTime-want.WastedTime) > eps*float64(in.N()) {
			t.Fatalf("%v/%v: wasted time %v, reference %v", cfg.Strategy, cfg.Policy,
				got.Result.WastedTime, want.WastedTime)
		}
	}
}

// TestFlatEngineMatchesEventEngine holds the full pipeline against the
// float event-heap reference (sim.Run under a ListDispatcher) for every
// strategy: dispatch decisions must be identical, times within the
// accumulated nanotick quantization. (Worker-count invariance is
// pinned on RunSharded itself, in sim/flat_test.go.)
func TestFlatEngineMatchesEventEngine(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 80, M: 12, Alpha: 1.8, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(55))
	cfgs := []Config{
		{Strategy: NoReplication},
		{Strategy: ReplicateEverywhere},
		{Strategy: Groups, Groups: 4},
		{Strategy: Groups, Groups: 4, UseLPTWithinGroups: true},
		{Strategy: BaselineLS},
	}
	eps := 1e-9 * float64(in.N()+1)
	for _, cfg := range cfgs {
		p, order := referencePlan(t, in, cfg)
		d, err := sim.NewListDispatcher(p, order)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(in, d, sim.Options{})
		if err != nil {
			t.Fatalf("%v: reference engine: %v", cfg.Strategy, err)
		}
		got, err := Run(in, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Strategy, err)
		}
		for j, ga := range got.Schedule.Assignments {
			wa := want.Schedule.Assignments[j]
			if ga.Machine != wa.Machine {
				t.Fatalf("%v: task %d machine %d, reference %d",
					cfg.Strategy, j, ga.Machine, wa.Machine)
			}
			if math.Abs(ga.Start-wa.Start) > eps || math.Abs(ga.End-wa.End) > eps {
				t.Fatalf("%v: task %d times drift beyond %v from the reference", cfg.Strategy, j, eps)
			}
		}
		if wm := want.Schedule.Makespan(); math.Abs(got.Makespan-wm) > eps {
			t.Fatalf("%v: makespan %v, reference %v", cfg.Strategy, got.Makespan, wm)
		}
	}
}
