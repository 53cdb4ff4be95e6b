// Integration tests spanning the full pipeline: workload generation →
// perturbation → phase-1 placement → (de)serialization → phase-2
// simulation → verification → scoring. Unit tests live next to each
// package; these exercise the seams between them.
package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func TestPlacementSerializationPreservesSchedule(t *testing.T) {
	// Plan, serialize the placement, reload it, dispatch over the
	// reloaded copy: the executed schedule must be identical.
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 80, M: 8, Alpha: 1.7, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(6))

	a := algo.LSGroup(4)
	p, err := a.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := placement.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.Validate(in); err != nil {
		t.Fatal(err)
	}

	run := func(pl *placement.Placement) float64 {
		res, err := sim.RunFlat(in, pl, a.Order(in), sim.FlatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Verify(in, pl); err != nil {
			t.Fatal(err)
		}
		return res.Schedule.Makespan()
	}
	if got, want := run(reloaded), run(p); got != want {
		t.Fatalf("reloaded placement makespan %v != original %v", got, want)
	}
}

func TestCSVTraceDrivesFullPipeline(t *testing.T) {
	orig := workload.MustNew(workload.Spec{Name: "spmv", N: 60, M: 6, Alpha: 1.5, Seed: 9})
	uncertainty.LogNormal{Sigma: 0.2}.Perturb(orig, nil, rng.New(10))
	var buf bytes.Buffer
	if err := workload.WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	in, err := workload.ReadCSV(&buf, 6, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Strategy: core.NoReplication},
		{Strategy: core.Groups, Groups: 3},
		{Strategy: core.ReplicateEverywhere},
	} {
		want, err := core.Run(orig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Run(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("%v: CSV round trip changed makespan %v → %v",
				cfg.Strategy, want.Makespan, got.Makespan)
		}
	}
}

func TestStaticScheduleMatchesSimulatorForNoChoice(t *testing.T) {
	// With singleton replica sets the event-driven simulator must
	// produce exactly the schedule that FromMapping computes directly.
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 50, M: 5, Alpha: 2, Seed: 11})
	uncertainty.Extremes{}.Perturb(in, nil, rng.New(12))
	res, err := algo.Execute(in, algo.LPTNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	mapping := make([]int, in.N())
	for j, set := range res.Placement.Sets {
		mapping[j] = set[0] // no replication: each set is one machine
	}
	static, err := sched.FromMapping(in, mapping)
	if err != nil {
		t.Fatal(err)
	}
	// FromMapping executes each machine's tasks in ID order while the
	// simulator follows LPT order: same sets, different summation
	// order, and the simulator's times are nanotick-quantized (≤ 0.5e-9 s
	// per task), so compare within Verify's own relative tolerance.
	if math.Abs(static.Makespan()-res.Makespan) > 1e-9*res.Makespan {
		t.Fatalf("simulator %v != static %v", res.Makespan, static.Makespan())
	}
	for i, want := range static.Loads() {
		if got := res.Schedule.Loads()[i]; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("machine %d load %v != %v", i, got, want)
		}
	}
}

func TestAdversarialPipelineAcrossStrategies(t *testing.T) {
	// End to end: replication must strictly reduce the damage of the
	// Theorem 1 adversary, and every measured ratio must respect its
	// strategy's guarantee (exact optimum).
	in, err := adversary.Theorem1Instance(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(in, core.Config{Strategy: core.NoReplication})
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Apply(in, plan.Placement); err != nil {
		t.Fatal(err)
	}
	star, ok := opt.Exact(in.Actuals(), in.M, 50_000_000)
	if !ok {
		t.Fatal("exact solver exhausted")
	}

	ratios := map[string]float64{}
	for _, cfg := range []core.Config{
		{Strategy: core.NoReplication},
		{Strategy: core.Groups, Groups: 2},
		{Strategy: core.ReplicateEverywhere},
	} {
		out, err := core.Run(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratio := out.Makespan / star
		ratios[cfg.Strategy.String()] = ratio
		if ratio > out.Guarantee+1e-9 {
			t.Fatalf("%v: ratio %v above guarantee %v", cfg.Strategy, ratio, out.Guarantee)
		}
	}
	if !(ratios["replicate-everywhere"] < ratios["no-replication"]) {
		t.Fatalf("full replication (%v) did not beat pinning (%v) under the adversary",
			ratios["replicate-everywhere"], ratios["no-replication"])
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	// Identical seeds must reproduce identical outcomes through every
	// layer, including memory-aware runs.
	build := func() (float64, float64) {
		in := workload.MustNew(workload.Spec{Name: "mapreduce", N: 70, M: 7, Alpha: 2, Seed: 21})
		uncertainty.LogNormal{Sigma: 0.3}.Perturb(in, nil, rng.New(22))
		out, err := core.Run(in, core.Config{Strategy: core.Groups, Groups: 7})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := core.RunMemoryAware(in, core.MemoryAwareConfig{Delta: 2, Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		return out.Makespan, mem.Result.MemMax
	}
	m1, mem1 := build()
	m2, mem2 := build()
	if m1 != m2 || mem1 != mem2 {
		t.Fatalf("non-deterministic pipeline: (%v,%v) vs (%v,%v)", m1, mem1, m2, mem2)
	}
}

func TestMetricsConsistentWithOptimum(t *testing.T) {
	// Utilization of 1 implies makespan equals the average-load lower
	// bound; the oracle on a replicated run should get close.
	in := workload.MustNew(workload.Spec{Name: "iterative", N: 200, M: 10, Alpha: 1.2, Seed: 31})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(32))
	out, err := core.Run(in, core.Config{Strategy: core.ReplicateEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	metrics := out.Schedule.ComputeMetrics()
	if metrics.Utilization < 0.95 {
		t.Fatalf("replicated near-uniform run utilization %v, expected > 0.95", metrics.Utilization)
	}
	lb := opt.SumLowerBound(in.Actuals(), in.M)
	if math.Abs(metrics.AvgLoad-lb) > 1e-9*lb {
		t.Fatalf("metrics avg load %v != opt lower bound %v", metrics.AvgLoad, lb)
	}
}
