package algo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func instWithActuals(t *testing.T, m int, alpha float64, est, act []float64) *task.Instance {
	t.Helper()
	in, err := task.New(m, alpha, est, act)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// actualBounds returns max_j p_j and Σ_j p_j, the two trivial makespan
// bounds.
func actualBounds(in *task.Instance) (max, total float64) {
	for _, t := range in.Tasks {
		if t.Actual > max {
			max = t.Actual
		}
		total += t.Actual
	}
	return max, total
}

// pinnedMachines maps each task of a no-replication placement to its
// one machine.
func pinnedMachines(p *placement.Placement) []int {
	out := make([]int, len(p.Sets))
	for j, set := range p.Sets {
		out[j] = set[0]
	}
	return out
}

func exactInstance(t *testing.T, m int, times ...float64) *task.Instance {
	t.Helper()
	return instWithActuals(t, m, 1, times, times)
}

func allAlgorithms(m int) []Algorithm {
	algos := []Algorithm{
		LPTNoChoice(), LSNoChoice(), LPTNoRestriction(), LSNoRestriction(), OracleLPT(),
	}
	for k := 1; k <= m; k++ {
		if m%k == 0 {
			algos = append(algos, LSGroup(k), LPTGroup(k))
		}
	}
	return algos
}

func TestLPTNoChoiceMatchesClassicLPT(t *testing.T) {
	// Exact estimates: LPT-No Choice must reproduce offline LPT.
	times := []float64{7, 7, 6, 6, 5, 5, 4, 4, 4}
	in := exactInstance(t, 3, times...)
	res, err := Execute(in, LPTNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := opt.LPT(times, 3)
	if res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Placement.MaxReplication() != 1 {
		t.Fatalf("no-choice placement replicated: %d", res.Placement.MaxReplication())
	}
}

func TestLPTNoRestrictionAdaptsOnline(t *testing.T) {
	// Two machines; estimates say four equal tasks, but one task
	// quadruples. Full replication lets phase 2 route around the
	// straggler; a fixed LPT placement cannot.
	est := []float64{2, 2, 2, 2}
	act := []float64{4, 1, 1, 1}
	in := instWithActuals(t, 2, 2, est, act)

	fixed, err := Execute(in, LPTNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	free, err := Execute(in, LPTNoRestriction())
	if err != nil {
		t.Fatal(err)
	}
	// LPT-NoChoice pairs tasks (0,1) and (2,3): loads 5 and 2 → 5.
	if fixed.Makespan != 5 {
		t.Fatalf("fixed makespan = %v, want 5", fixed.Makespan)
	}
	// Online: t=0 start 0 on m0, 1 on m1; m1 idles at 1, takes 2; at 2
	// takes 3; loads 4 and 3 → 4.
	if free.Makespan != 4 {
		t.Fatalf("replicated makespan = %v, want 4", free.Makespan)
	}
}

func TestLSGroupOneGroupEqualsNoRestrictionLS(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 60, M: 6, Alpha: 1.5, Seed: 3})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(4))
	a, err := Execute(in, LSGroup(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(in, LSNoRestriction())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("LSGroup(1) %v != LSNoRestriction %v", a.Makespan, b.Makespan)
	}
}

func TestLSGroupMGroupsEqualsNoChoiceLS(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 60, M: 6, Alpha: 1.5, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(6))
	a, err := Execute(in, LSGroup(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(in, LSNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("LSGroup(m) %v != LSNoChoice %v", a.Makespan, b.Makespan)
	}
}

func TestLSGroupReplicationDegree(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 30, M: 6, Alpha: 2, Seed: 7})
	for _, k := range []int{1, 2, 3, 6} {
		res, err := Execute(in, LSGroup(k))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Placement.MaxReplication(); got != 6/k {
			t.Errorf("k=%d: replication %d, want %d", k, got, 6/k)
		}
	}
}

func TestLSGroupRejectsNonDivisorK(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 10, M: 6, Alpha: 2, Seed: 1})
	if _, err := Execute(in, LSGroup(4)); err == nil {
		t.Fatal("k=4 with m=6 accepted")
	}
}

func TestOracleLPTBeatsBlindOnAdversarialInstance(t *testing.T) {
	est := []float64{1, 1, 1, 1, 1, 1}
	in, err := task.NewEstimated(2, 2, est)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-1-aware adversary against LPT-NoChoice.
	p, err := LPTNoChoice().Place(in)
	if err != nil {
		t.Fatal(err)
	}
	uncertainty.LoadedMachineAdversary{}.Perturb(in, &uncertainty.Context{Preferred: pinnedMachines(p), M: 2}, rng.New(1))

	blind, err := Execute(in, LPTNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Execute(in, OracleLPT())
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Makespan >= blind.Makespan {
		t.Fatalf("oracle %v not better than blind %v", oracle.Makespan, blind.Makespan)
	}
}

func TestAllAlgorithmsProduceFeasibleSchedules(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		in := workload.MustNew(workload.Spec{Name: "zipf", N: 48, M: 6, Alpha: 1.7, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
		algos := allAlgorithms(6)
		a := algos[int(pick)%len(algos)]
		res, err := Execute(in, a)
		if err != nil {
			return false
		}
		// Makespan at least the average load and at most total work.
		_, total := actualBounds(in)
		return res.Makespan >= total/6-1e-9 && res.Makespan <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGuaranteesHoldOnSmallInstances(t *testing.T) {
	// Empirically check Theorems 2–4 against the exact optimum for
	// random perturbed instances.
	const m = 4
	src := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 12, M: m, Alpha: 1.5, Seed: src.Uint64(),
		})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(src.Uint64()))
		star, ok := opt.Exact(in.Actuals(), m, 20_000_000)
		if !ok {
			t.Fatal("exact solver exhausted on a 12-task instance")
		}
		alpha2 := in.Alpha * in.Alpha
		mf := float64(m)
		checks := []struct {
			algo  Algorithm
			bound float64
		}{
			{LPTNoChoice(), 2 * alpha2 * mf / (2*alpha2 + mf - 1)},
			{LPTNoRestriction(), math.Min(1+(mf-1)/mf*alpha2/2, 2-1/mf)},
			{LSGroup(2), 2*alpha2/(alpha2+1)*(1+1/mf) + (mf-2)/mf},
		}
		for _, c := range checks {
			res, err := Execute(in, c.algo)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := res.Makespan / star; ratio > c.bound+1e-9 {
				t.Errorf("trial %d: %s ratio %v exceeds bound %v", trial, c.algo.Name(), ratio, c.bound)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{
		"lpt-nochoice", "LS-NoChoice", "lpt-norestriction",
		"ls-norestriction", "oracle-lpt", "ls-group:3", "LPT-Group:2",
	} {
		a, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if a.Name() == "" {
			t.Errorf("New(%q) has empty name", name)
		}
	}
	for _, name := range []string{"", "bogus", "ls-group:", "ls-group:0", "ls-group:x"} {
		if _, err := New(name); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
}

func TestNamesIncludeGroups(t *testing.T) {
	found := false
	for _, n := range Names() {
		if strings.Contains(n, "group") {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() missing group algorithms")
	}
}

// TestGuaranteeByName: a registry name resolves to the strategy, and
// the strategy states its own bound.
func TestGuaranteeByName(t *testing.T) {
	m, alpha := 12, 1.5
	cases := []struct {
		name string
		want float64
		ok   bool
	}{
		{"lpt-nochoice", bounds.LPTNoChoice(m, alpha), true},
		{"lpt-norestriction", bounds.LPTNoRestriction(m, alpha), true},
		{"ls-norestriction", bounds.GrahamLS(m), true},
		{"oracle-lpt", bounds.LPTOffline(m), true},
		{"ls-group:3", bounds.LSGroup(m, 3, alpha), true},
		{"lpt-group:4", bounds.LSGroup(m, 4, alpha), true},
		{"ls-group-balanced:6", bounds.LSGroup(m, 6, alpha), true},
		{"ls-group-balanced:5", 0, false}, // 5 does not divide 12
		{"ls-group:99", 0, false},         // k > m
		{"ls-nochoice", 0, false},
		{"tail:2", 0, false},
	}
	for _, tc := range cases {
		a, err := New(tc.name)
		if err != nil {
			t.Errorf("New(%q): %v", tc.name, err)
			continue
		}
		got, ok := a.Guarantee(m, alpha)
		if ok != tc.ok || (ok && math.Abs(got-tc.want) > 1e-12) {
			t.Errorf("%q.Guarantee = %v,%v want %v,%v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	// A name that resolves to no strategy has no bound to ask for.
	if _, err := New("unknown"); err == nil {
		t.Error(`New("unknown") accepted`)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "mapreduce", N: 100, M: 8, Alpha: 2, Seed: 11})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(12))
	for _, a := range allAlgorithms(8) {
		r1, err := Execute(in, a)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Execute(in, a)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Makespan != r2.Makespan {
			t.Errorf("%s not deterministic: %v vs %v", a.Name(), r1.Makespan, r2.Makespan)
		}
	}
}

func TestMoreReplicationNeverHurtsMuchOnAverage(t *testing.T) {
	// The paper's core claim, empirically: averaged over random
	// perturbations, LS-Group with more replication (fewer groups)
	// yields no worse makespan.
	const trials = 30
	sums := map[int]float64{}
	ks := []int{1, 2, 3, 6}
	src := rng.New(31)
	for trial := 0; trial < trials; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "iterative", N: 60, M: 6, Alpha: 2, Seed: src.Uint64(),
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(src.Uint64()))
		for _, k := range ks {
			res, err := Execute(in, LSGroup(k))
			if err != nil {
				t.Fatal(err)
			}
			sums[k] += res.Makespan
		}
	}
	// k=1 is full replication; k=6 is none. Expect a clear win.
	if sums[1] >= sums[6] {
		t.Fatalf("full replication (%.4g) not better than none (%.4g)", sums[1], sums[6])
	}
}

func BenchmarkLPTNoRestriction1e4(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 10000, M: 32, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(in, LPTNoRestriction()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSGroup1e4(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 10000, M: 32, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(in, LSGroup(4)); err != nil {
			b.Fatal(err)
		}
	}
}
