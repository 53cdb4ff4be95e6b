package core

import (
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// referencePlan resolves a configuration to the placement and priority
// order its algorithm produces, the inputs the sim engines take
// directly.
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

// TestOpenSystemEngines holds the open-system pipeline to the engine it
// wires: RunOpenSystem's result is sim.Runner.RunOpenSharded's on one
// worker over the plan's placement and order, bit for bit, across
// strategies and cancellation policies. (That the engine is right is internal/sim's
// differential suite against its oracle; worker-count invariance is
// pinned on RunSharded itself, in sim/flat_open_test.go.)
func TestOpenSystemEngines(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 80, M: 12, Alpha: 1.8, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(55))
	arrive, err := workload.Arrivals(in.N(), workload.ArrivalSpec{
		Process: "poisson", Rate: float64(in.M) / 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []OpenConfig{
		{Config: Config{Strategy: NoReplication}},
		{Config: Config{Strategy: ReplicateEverywhere}, Policy: sim.CancelOnCompletion, CancelCost: 0.25},
		{Config: Config{Strategy: Groups, Groups: 4}, Policy: sim.CancelOnStart},
		{Config: Config{Strategy: Groups, Groups: 4}, Policy: sim.CancelOnCompletion, CancelCost: 0.5},
	}
	for _, cfg := range cfgs {
		p, order := referencePlan(t, in, cfg.Config)
		var r sim.Runner
		want, err := r.RunOpenSharded(in, p, order, arrive, sim.OpenOptions{Policy: cfg.Policy, CancelCost: cfg.CancelCost})
		if err != nil {
			t.Fatalf("%v/%v: engine: %v", cfg.Strategy, cfg.Policy, err)
		}
		got, err := RunOpenSystem(in, arrive, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Strategy, cfg.Policy, err)
		}
		if !reflect.DeepEqual(got.Result.Schedule.Assignments, want.Schedule.Assignments) ||
			!reflect.DeepEqual(got.Result.Responses, want.Responses) {
			t.Fatalf("%v/%v: schedule or responses differ from the unsharded engine's", cfg.Strategy, cfg.Policy)
		}
		if got.Result.CancelledReplicas != want.CancelledReplicas || got.Result.WastedTime != want.WastedTime ||
			got.Result.End != want.End {
			t.Fatalf("%v/%v: cancelled %d, wasted %v, end %v; unsharded engine %d, %v, %v",
				cfg.Strategy, cfg.Policy, got.Result.CancelledReplicas, got.Result.WastedTime, got.Result.End,
				want.CancelledReplicas, want.WastedTime, want.End)
		}
	}
}

// TestFlatEngineMatchesEventEngine holds the batch pipeline to the
// engine it wires, the same way: RunAlgorithm's schedule — the one Run
// resolves every Strategy onto — is the unsharded sim.RunFlat's over
// the algorithm's placement and order, bit for bit, for every strategy.
func TestFlatEngineMatchesEventEngine(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 80, M: 12, Alpha: 1.8, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(55))
	algs := []algo.Algorithm{
		algo.LPTNoChoice(),
		algo.LPTNoRestriction(),
		algo.LSGroup(4),
		algo.LPTGroup(4),
		algo.LSNoRestriction(),
	}
	var r Runner
	for _, a := range algs {
		p, err := a.Place(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunFlat(in, p, a.Order(in), sim.FlatOptions{})
		if err != nil {
			t.Fatalf("%v: unsharded engine: %v", a.Name(), err)
		}
		got, err := r.RunAlgorithm(in, a, 0)
		if err != nil {
			t.Fatalf("%v: %v", a.Name(), err)
		}
		if !reflect.DeepEqual(got.Schedule.Assignments, want.Schedule.Assignments) {
			t.Fatalf("%v: schedule differs from the unsharded engine's", a.Name())
		}
		if wm := want.Schedule.Makespan(); got.Makespan != wm {
			t.Fatalf("%v: makespan %v, unsharded engine %v", a.Name(), got.Makespan, wm)
		}
	}
}
