package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/sched"
)

// poolConfigs spans every strategy so a reused Runner crosses
// algorithm boundaries — the placements and schedules it recycles
// differ in shape and group structure between consecutive calls.
func poolConfigs() []Config {
	return []Config{
		{Strategy: NoReplication},
		{Strategy: Groups, Groups: 3},
		{Strategy: ReplicateEverywhere},
		{Strategy: Oracle},
	}
}

// sameBits reports whether two floats have one bit pattern: a NaN
// guarantee (Oracle) equals itself, and no rounding passes unseen.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// outcomesEqual compares every field of two Outcomes, floats by bits.
func outcomesEqual(t *testing.T, got, want *Outcome) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Errorf("Algorithm = %q, want %q", got.Algorithm, want.Algorithm)
	}
	if !reflect.DeepEqual(got.Placement.Sets, want.Placement.Sets) {
		t.Error("Placement.Sets diverge")
	}
	if !reflect.DeepEqual(got.Schedule.Assignments, want.Schedule.Assignments) {
		t.Error("Schedule.Assignments diverge")
	}
	if !sameBits(got.Makespan, want.Makespan) {
		t.Errorf("Makespan = %v, want %v", got.Makespan, want.Makespan)
	}
	if !optimaEqual(got.Optimum, want.Optimum) {
		t.Errorf("Optimum = %+v, want %+v", got.Optimum, want.Optimum)
	}
	if !sameBits(got.RatioLower, want.RatioLower) || !sameBits(got.RatioUpper, want.RatioUpper) {
		t.Errorf("ratios = (%v, %v), want (%v, %v)",
			got.RatioLower, got.RatioUpper, want.RatioLower, want.RatioUpper)
	}
	if !sameBits(got.Guarantee, want.Guarantee) {
		t.Errorf("Guarantee = %v, want %v", got.Guarantee, want.Guarantee)
	}
	if got.ReplicasPerTask != want.ReplicasPerTask {
		t.Errorf("ReplicasPerTask = %d, want %d", got.ReplicasPerTask, want.ReplicasPerTask)
	}
}

// TestRunnerMatchesPackageRun is the core-level pooling differential
// test: one Runner reused across strategies and seeds must produce
// outcomes identical in every field to the allocate-fresh package
// entry point. The experiment engine's byte-identical-report golden
// tests build on exactly this equivalence.
func TestRunnerMatchesPackageRun(t *testing.T) {
	var reused Runner
	for _, seed := range []uint64{3, 11, 42} {
		for _, cfg := range poolConfigs() {
			in := sampleInstance(seed)
			got, err := reused.Run(in, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: reused: %v", seed, cfg, err)
			}
			want, err := Run(sampleInstance(seed), cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: fresh: %v", seed, cfg, err)
			}
			outcomesEqual(t, got, want)
		}
		// LPT-Group has no Strategy: the algorithm-keyed entry runs it,
		// between one seed's Oracle run and the next seed's first.
		got, err := reused.RunAlgorithm(sampleInstance(seed), algo.LPTGroup(2), 0)
		if err != nil {
			t.Fatalf("seed %d lpt-group:2: reused: %v", seed, err)
		}
		want, err := new(Runner).RunAlgorithm(sampleInstance(seed), algo.LPTGroup(2), 0)
		if err != nil {
			t.Fatalf("seed %d lpt-group:2: fresh: %v", seed, err)
		}
		outcomesEqual(t, got, want)
	}
}

// TestRunnerExecuteMatchesPlanExecute repeats the check for the
// perturb-then-execute path (plan once, adversary moves, execute):
// Runner.Execute against Plan.Execute.
func TestRunnerExecuteMatchesPlanExecute(t *testing.T) {
	var reused Runner
	for _, seed := range []uint64{5, 19} {
		for _, cfg := range poolConfigs() {
			in := sampleInstance(seed)
			plan, err := NewPlan(in, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: plan: %v", seed, cfg, err)
			}
			got, err := reused.Execute(plan, in)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: reused execute: %v", seed, cfg, err)
			}
			want, err := plan.Execute(in)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: fresh execute: %v", seed, cfg, err)
			}
			outcomesEqual(t, got, want)
		}
	}
}

// TestVerifyPathFromTheCounters: which source of order answered a
// feasibility check is readable from a scrape. Every strategy's run is
// verified by the engine's dispatch record and never sorts; the same
// schedule after a trip through JSON, which carries no record, sorts.
func TestVerifyPathFromTheCounters(t *testing.T) {
	recorded, sorted := obs.GetCounter("sched.verify_recorded"), obs.GetCounter("sched.verify_sorted")
	var r Runner
	for _, cfg := range poolConfigs() {
		in := sampleInstance(7)
		rec0, srt0 := recorded.Load(), sorted.Load()
		out, err := r.Run(in, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if rec, srt := recorded.Load()-rec0, sorted.Load()-srt0; rec != 1 || srt != 0 {
			t.Errorf("cfg %+v: a run made %d recorded and %d sorted checks, want 1 and 0", cfg, rec, srt)
		}

		data, err := json.Marshal(out.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		var decoded sched.Schedule
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		rec0, srt0 = recorded.Load(), sorted.Load()
		if err := decoded.Verify(in, out.Placement); err != nil {
			t.Fatalf("cfg %+v: decoded schedule: %v", cfg, err)
		}
		if rec, srt := recorded.Load()-rec0, sorted.Load()-srt0; rec != 0 || srt != 1 {
			t.Errorf("cfg %+v: a decoded schedule made %d recorded and %d sorted checks, want 0 and 1", cfg, rec, srt)
		}
	}
}
