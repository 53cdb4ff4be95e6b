// Package benchsuite defines the curated benchmark set shared by the
// repo's go-test benchmarks (bench_test.go) and the benchmark
// regression harness (cmd/benchreport). Keeping one definition of
// each workload means the numbers a developer sees from `go test
// -bench` and the numbers the regression gate compares are produced by
// the same code, not near-copies that drift apart.
//
// The set is curated, not exhaustive: each entry pins one hot path
// the performance work in this repo cares about — the end-to-end
// two-phase pipeline per strategy and size, the bare simulator event
// loop (the zero-allocation target), the memo-cache hit path and the
// cold solve behind a miss, and one solver-heavy experiment.
package benchsuite

import (
	"io"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/keysort"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// Spec is one curated benchmark.
type Spec struct {
	// Name is the stable identifier used in BENCH_*.json baselines and
	// as the sub-benchmark name under go test. Renaming one orphans its
	// baseline entry, so treat names as an interface.
	Name string
	// Tasks is the number of scheduling tasks one iteration processes;
	// the harness derives tasks/s from it. Zero for benchmarks where
	// the metric is meaningless.
	Tasks int
	// Run is the benchmark body, usable with b.Run and
	// testing.Benchmark alike. Bodies call b.ReportAllocs themselves so
	// allocation counts are recorded in every harness.
	Run func(b *testing.B)
}

// scalingInstance builds the perturbed uniform 64-machine instance the
// scaling benchmarks share. Deterministic: fixed seeds.
func scalingInstance(n int) *task.Instance { return uniformInstance(n, 64) }

func uniformInstance(n, m int) *task.Instance {
	in := workload.MustNew(workload.Spec{
		Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: 1,
	})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	return in
}

func scalingSpec(name string, n int, cfg core.Config) Spec {
	return Spec{
		Name:  "Scaling/" + name,
		Tasks: n,
		Run: func(b *testing.B) {
			in := scalingInstance(n)
			var r core.Runner
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(in, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		},
	}
}

// simLoopSpec benchmarks the bare simulator core on the flat engine:
// placement and priority order are computed once outside the timer, so
// the measured region is exactly state rebuild + shard execution
// (sequential workers so the number is per-core and stable across
// hosts). Three shapes, all at 0 allocs/op:
//
//   - n=100k, no replication: every machine is an independent singleton
//     shard, the engine's heap-free linear replay path — the ≥10M
//     tasks/s target BENCH_8.json gates;
//   - everywhere (LPT-No Restriction): every task on its shard's one
//     list, no queue entry built;
//   - abo (ABO_Δ at Δ=1): the pinned S2 in per-machine queues, ranked
//     before the replicated S1 on the shard list.
//
// The last two attribute pipeline-fresh's `everywhere` and `abo`
// classes to the engine's dispatch structure.
func simLoopSpec(name string, n int, shape func(*task.Instance) (*placement.Placement, []int, error)) Spec {
	return Spec{
		Name:  "SimLoop/" + name,
		Tasks: n,
		Run: func(b *testing.B) {
			in := scalingInstance(n)
			p, order, err := shape(in)
			if err != nil {
				b.Fatal(err)
			}
			var runner sim.FlatRunner
			// One untimed pass grows every pooled buffer to size so the
			// timed region measures the steady state (the 0 allocs/op
			// invariant), not first-use slice growth.
			if _, err := runner.RunSharded(in, p, order, sim.FlatOptions{}, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunSharded(in, p, order, sim.FlatOptions{}, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		},
	}
}

func noneShape(in *task.Instance) (*placement.Placement, []int, error) {
	a := algo.LPTNoChoice()
	p, err := a.Place(in)
	return p, a.Order(in), err
}

func everywhereShape(in *task.Instance) (*placement.Placement, []int, error) {
	a := algo.LPTNoRestriction()
	p, err := a.Place(in)
	return p, a.Order(in), err
}

func aboShape(in *task.Instance) (*placement.Placement, []int, error) {
	res, err := memaware.ABO(in, memaware.Config{Delta: 1})
	if err != nil {
		return nil, nil, err
	}
	return res.Placement, append(append([]int(nil), res.MemoryIntensive...), res.TimeIntensive...), nil
}

// lptOrderSpec measures the one sort an LPT plan makes: the (estimate
// descending, id ascending) order of a pipeline-fresh instance from a
// reused scratch, as algo.Scratch.plan runs it.
func lptOrderSpec(n int) Spec {
	return Spec{
		Name:  "LPTOrder/n=10k",
		Tasks: n,
		Run: func(b *testing.B) {
			keys := scalingInstance(n).Estimates()
			var ks keysort.Scratch
			order := ks.OrderDesc(keys, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				order = ks.OrderDesc(keys, order)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		},
	}
}

// openSimLoopInputs builds the open-system workload: Poisson
// arrivals, replicate-everywhere placement, and cancel-on-completion
// racing — the heaviest configuration (every machine queues every
// task, and each completion scans for replicas to cancel).
func openSimLoopInputs(b *testing.B, n, m int) (*task.Instance, *placement.Placement,
	[]int, []float64, sim.OpenOptions) {
	in := uniformInstance(n, m)
	a := algo.LPTNoRestriction()
	p, err := a.Place(in)
	if err != nil {
		b.Fatal(err)
	}
	order := a.Order(in)
	arrive := workload.MustArrivals(n, workload.ArrivalSpec{
		Process: "poisson",
		Rate:    float64(in.M) / 4,
		Seed:    3,
	})
	opts := sim.OpenOptions{Policy: sim.CancelOnCompletion, CancelCost: 0.1}
	return in, p, order, arrive, opts
}

// openSimLoopSpec benchmarks the open-system loop on the flat engine:
// placement, order, and the arrival stream are computed once outside
// the timer, so the measured region is exactly state rebuild + wheel
// replay (sequential workers, as in simLoopSpec, so the number is
// per-core). Replicate-everywhere makes the whole cluster one uniform
// shard on the race-collapse path: ≥1.5M tasks/s at m=64 and ≥500K at
// m=128 (two-word cohort masks), both 0 allocs/op, are the floors the
// committed baseline gates.
func openSimLoopSpec(name string, n, m int) Spec {
	return Spec{
		Name:  "OpenSimLoop/" + name,
		Tasks: n,
		Run: func(b *testing.B) {
			in, p, order, arrive, opts := openSimLoopInputs(b, n, m)
			var runner sim.FlatOpenRunner
			// Untimed warm-up pass, as in simLoopSpec: grow the pooled
			// buffers so the timed region measures the steady state.
			if _, err := runner.RunSharded(in, p, order, arrive, opts, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunSharded(in, p, order, arrive, opts, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		},
	}
}

func estimateWarmSpec() Spec {
	return Spec{
		Name: "EstimateCache/warm",
		Run: func(b *testing.B) {
			src := rng.New(7)
			times := make([]float64, 64)
			for i := range times {
				times[i] = src.Uniform(1, 10)
			}
			opt.ResetCache()
			opt.Estimate(times, 8, len(times))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Estimate(times, 8, len(times))
			}
		},
	}
}

// estimateColdSpec measures what a memo miss costs: the cold optimum
// solve every fresh instance pays once before its scores become hits.
// The inputs are a ring of distinct pre-generated instances and the
// memo is emptied, timer stopped, once per lap, so every timed call is
// a miss; EstimateCache/warm is the other half of the split. The three
// shapes are the ones cmd/bench's workloads solve: pipeline-fresh
// (n=10k, m=64), serve-solve (n=2k, m=512) and serve-fanout (n=200,
// m=8).
func estimateColdSpec(name string, n, m int) Spec {
	return Spec{
		Name:  "EstimateCold/" + name,
		Tasks: n,
		Run: func(b *testing.B) {
			src := rng.New(14)
			ring := make([][]float64, 16)
			for k := range ring {
				ring[k] = make([]float64, n)
				for i := range ring[k] {
					ring[k][i] = src.Uniform(1, 100)
				}
			}
			// One untimed lap grows the pooled solve scratch to size.
			for _, times := range ring {
				opt.Estimate(times, m, 0)
			}
			opt.ResetCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(ring) == 0 {
					b.StopTimer()
					opt.ResetCache()
					b.StartTimer()
				}
				opt.Estimate(ring[i%len(ring)], m, 0)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		},
	}
}

func experimentSpec(id string) Spec {
	return Spec{
		Name: "Experiment/" + id + "-quick",
		Run: func(b *testing.B) {
			e, err := experiments.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, experiments.Options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// Curated returns the benchmark set, in a fixed order.
func Curated() []Spec {
	return []Spec{
		scalingSpec("NoReplication/n=1k", 1_000, core.Config{Strategy: core.NoReplication}),
		scalingSpec("NoReplication/n=10k", 10_000, core.Config{Strategy: core.NoReplication}),
		scalingSpec("NoReplication/n=100k", 100_000, core.Config{Strategy: core.NoReplication}),
		scalingSpec("Groups8/n=10k", 10_000, core.Config{Strategy: core.Groups, Groups: 8}),
		scalingSpec("Everywhere/n=10k", 10_000, core.Config{Strategy: core.ReplicateEverywhere}),
		simLoopSpec("n=100k", 100_000, noneShape),
		simLoopSpec("everywhere/n=10k,m=64", 10_000, everywhereShape),
		simLoopSpec("abo/n=10k,m=64", 10_000, aboShape),
		lptOrderSpec(10_000),
		openSimLoopSpec("n=10k", 10_000, 64),
		openSimLoopSpec("m=128", 10_000, 128),
		estimateWarmSpec(),
		estimateColdSpec("n=10k,m=64", 10_000, 64),
		estimateColdSpec("n=2k,m=512", 2_000, 512),
		estimateColdSpec("n=200,m=8", 200, 8),
		experimentSpec("e2"),
		frontTierSpec(32, 6),
	}
}
