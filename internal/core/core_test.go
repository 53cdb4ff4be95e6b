package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func sampleInstance(seed uint64) *task.Instance {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 40, M: 6, Alpha: 1.5, Seed: seed})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
	return in
}

func TestRunAllStrategies(t *testing.T) {
	in := sampleInstance(1)
	cfgs := []Config{
		{Strategy: NoReplication},
		{Strategy: ReplicateEverywhere},
		{Strategy: Groups, Groups: 2},
		{Strategy: BaselineLS},
		{Strategy: Oracle},
	}
	check := func(name string, out *Outcome, err error) {
		if err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		if out.Makespan <= 0 {
			t.Errorf("%v: non-positive makespan", name)
		}
		if out.RatioLower > out.RatioUpper+1e-12 {
			t.Errorf("%v: ratio bracket inverted: [%v, %v]",
				name, out.RatioLower, out.RatioUpper)
		}
		if out.RatioLower < 1-1e-9 {
			t.Errorf("%v: ratio lower %v below 1", name, out.RatioLower)
		}
	}
	for _, cfg := range cfgs {
		out, err := Run(in, cfg)
		check(cfg.Strategy.String(), out, err)
	}
	// LPT-Group has no Strategy: the algorithm-keyed entry runs it.
	out, err := new(Runner).RunAlgorithm(in, algo.LPTGroup(3), 0)
	check("lpt-group:3", out, err)
}

func TestReplicasPerTaskByStrategy(t *testing.T) {
	in := sampleInstance(2)
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Strategy: NoReplication}, 1},
		{Config{Strategy: ReplicateEverywhere}, 6},
		{Config{Strategy: Groups, Groups: 2}, 3},
		{Config{Strategy: Groups, Groups: 6}, 1},
	}
	for _, c := range cases {
		out, err := Run(in, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.ReplicasPerTask != c.want {
			t.Errorf("%v: replicas %d, want %d", c.cfg.Strategy, out.ReplicasPerTask, c.want)
		}
	}
}

func TestGuaranteeValues(t *testing.T) {
	m, alpha := 6, 1.5
	if g := (Config{Strategy: NoReplication}).Guarantee(m, alpha); g <= 1 {
		t.Errorf("NoReplication guarantee = %v", g)
	}
	// The oracle list-schedules the actual times: Graham's offline LPT.
	if g := (Config{Strategy: Oracle}).Guarantee(m, alpha); g != bounds.LPTOffline(m) {
		t.Errorf("Oracle guarantee = %v, want %v", g, bounds.LPTOffline(m))
	}
	if g := (Config{Strategy: Groups}).Guarantee(m, alpha); !math.IsNaN(g) {
		t.Errorf("guarantee of an unresolvable config = %v, want NaN", g)
	}
	// Groups guarantee must interpolate between the two extremes.
	full := (Config{Strategy: ReplicateEverywhere}).Guarantee(m, alpha)
	none := (Config{Strategy: NoReplication}).Guarantee(m, alpha)
	mid := (Config{Strategy: Groups, Groups: 2}).Guarantee(m, alpha)
	if mid < full-1e-9 || mid > none+1.0 {
		t.Errorf("Groups guarantee %v outside plausible range [%v, %v+1]", mid, full, none)
	}
}

func TestBadConfigs(t *testing.T) {
	in := sampleInstance(3)
	if _, err := Run(in, Config{Strategy: Groups}); err == nil {
		t.Error("Groups without count accepted")
	}
	if _, err := Run(in, Config{Strategy: Groups, Groups: 4}); err == nil {
		t.Error("non-divisor group count accepted")
	}
	if _, err := Run(in, Config{Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestPlanThenExecuteAdversarially(t *testing.T) {
	// The intended adversarial flow: plan, let the adversary see the
	// placement, then execute.
	in, err := adversary.Theorem1Instance(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(in, Config{Strategy: NoReplication})
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Apply(in, plan.Placement); err != nil {
		t.Fatal(err)
	}
	out, err := plan.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.RatioLower <= 1.3 {
		t.Fatalf("adversarial ratio %v too small", out.RatioLower)
	}
	if out.RatioUpper > out.Guarantee+1e-9 {
		t.Fatalf("ratio %v exceeded guarantee %v", out.RatioUpper, out.Guarantee)
	}
}

func TestRatioNeverExceedsGuaranteeProperty(t *testing.T) {
	f := func(seed uint64, stratRaw uint8) bool {
		in := workload.MustNew(workload.Spec{Name: "bimodal", N: 14, M: 2, Alpha: 1.4, Seed: seed})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(seed^7))
		cfgs := []Config{
			{Strategy: NoReplication},
			{Strategy: ReplicateEverywhere},
			{Strategy: Groups, Groups: 2},
			{Strategy: BaselineLS},
		}
		cfg := cfgs[int(stratRaw)%len(cfgs)]
		cfg.ExactLimit = 14
		out, err := Run(in, cfg)
		if err != nil {
			return false
		}
		if !out.Optimum.Exact {
			return true // can't certify without exact optimum
		}
		return out.RatioUpper <= out.Guarantee+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		NoReplication:       "no-replication",
		ReplicateEverywhere: "replicate-everywhere",
		Groups:              "groups",
		BaselineLS:          "baseline-ls",
		Oracle:              "oracle",
		Strategy(42):        "Strategy(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestRunMemoryAware(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 30, M: 4, Alpha: 1.5, Seed: 9})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(10))
	for _, replicate := range []bool{false, true} {
		out, err := RunMemoryAware(in, MemoryAwareConfig{Delta: 1, Replicate: replicate})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Makespan <= 0 || out.Result.MemMax <= 0 {
			t.Fatalf("replicate=%v: degenerate outcome %+v", replicate, out.Result)
		}
		if out.MakespanRatioBound <= 1 || out.MemoryRatioBound <= 1 {
			t.Fatalf("replicate=%v: degenerate bounds", replicate)
		}
		// Measured values must respect bound × optimum upper bracket.
		if out.Result.Makespan > out.MakespanRatioBound*out.OptMakespan.Upper+1e-9 {
			t.Fatalf("replicate=%v: makespan %v above bound", replicate, out.Result.Makespan)
		}
		if out.Result.MemMax > out.MemoryRatioBound*out.OptMemory.Upper+1e-9 {
			t.Fatalf("replicate=%v: memory %v above bound", replicate, out.Result.MemMax)
		}
	}
}

func TestRunMemoryAwareExactRho(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 12, M: 3, Alpha: 1.3, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(6))
	out, err := RunMemoryAware(in, MemoryAwareConfig{Delta: 2, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	// With ρ=1 and Δ=2 the memory ratio bound is exactly 1.5.
	if math.Abs(out.MemoryRatioBound-1.5) > 1e-12 {
		t.Fatalf("memory bound = %v, want 1.5", out.MemoryRatioBound)
	}
	if _, err := RunMemoryAware(in, MemoryAwareConfig{Delta: 0}); err == nil {
		t.Fatal("delta=0 accepted")
	}
}
