// Benchmarks regenerating every table and figure of the paper (one
// testing.B target per artifact, as indexed in DESIGN.md), plus
// scaling benchmarks of the algorithm pipeline itself.
//
// The scaling and sim-loop benchmarks delegate to internal/benchsuite,
// the curated set shared with cmd/benchreport's regression gate, so
// `go test -bench` and the gate measure identical code. Every
// benchmark reports allocations: the zero-allocation simulator core is
// an invariant of this repo, and a silent alloc regression should be
// visible in any benchmark run without remembering -benchmem.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/benchsuite"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// benchExperiment runs a registered experiment with Quick trial
// counts, discarding its report.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
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
}

// BenchmarkTable1 regenerates Table 1 (replication-bound guarantees).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2 (SABO/ABO guarantees).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure1 regenerates Figure 1 (Theorem 1 adversary).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2 (groups example).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates Figure 3 (ratio–replication curves).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates Figure 4 (SABO schedule example).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates Figure 5 (ABO schedule example).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (memory–makespan tradeoff).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkEmpiricalRatios runs E1 (measured ratio vs replication).
func BenchmarkEmpiricalRatios(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkGuaranteeValidation runs E2 (bounds vs exact optima).
func BenchmarkGuaranteeValidation(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkMemoryPareto runs E3 (empirical SABO/ABO Pareto fronts).
func BenchmarkMemoryPareto(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkWorkloads runs E4 (motivating workload comparison).
func BenchmarkWorkloads(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkAblations runs E6 (LPT-group and tail-replication ablations).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkLowerBoundConvergence runs E7.
func BenchmarkLowerBoundConvergence(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkModelViolation runs E8 (beyond-α failure injection).
func BenchmarkModelViolation(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkStealing runs E9 (fetch-penalty crossover).
func BenchmarkStealing(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkFailures runs E10 (fail-stop crash survivability).
func BenchmarkFailures(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkExperimentWorkers contrasts the fully sequential
// (Workers=1) and fan-out (Workers=0) renderings of E2. The harness
// guarantees both produce byte-identical reports, so the difference is
// pure parallel speedup.
func BenchmarkExperimentWorkers(b *testing.B) {
	e, err := experiments.Get("e2")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := experiments.Options{Quick: true, Workers: bc.workers}
				if err := e.Run(io.Discard, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateCache measures opt.Estimate on one instance under
// repetition: cold pays for the solve, warm hits the memo cache (the
// warm path also runs in the curated suite as EstimateCache/warm).
func BenchmarkEstimateCache(b *testing.B) {
	src := rng.New(7)
	times := make([]float64, 64)
	for i := range times {
		times[i] = src.Uniform(1, 10)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt.ResetCache()
			opt.Estimate(times, 8, len(times))
		}
	})
	b.Run("warm", func(b *testing.B) {
		opt.ResetCache()
		opt.Estimate(times, 8, len(times))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Estimate(times, 8, len(times))
		}
	})
}

// BenchmarkEstimateCold measures the cold optimum solve behind a memo
// miss at the three shapes cmd/bench's workloads solve, via the curated
// suite.
func BenchmarkEstimateCold(b *testing.B) {
	for _, s := range benchsuite.Curated() {
		if rest, ok := strings.CutPrefix(s.Name, "EstimateCold/"); ok {
			b.Run(rest, s.Run)
		}
	}
}

// BenchmarkScaling measures the end-to-end two-phase pipeline
// (placement + simulation + scoring) per strategy and task count — the
// data behind E5, via the curated suite.
func BenchmarkScaling(b *testing.B) {
	for _, s := range benchsuite.Curated() {
		if rest, ok := strings.CutPrefix(s.Name, "Scaling/"); ok {
			b.Run(rest, s.Run)
		}
	}
}

// BenchmarkSimLoop measures the bare flat-engine simulator core with
// placement and order precomputed: the ≥10M tasks/s,
// zero-steady-state-allocations target.
func BenchmarkSimLoop(b *testing.B) {
	for _, s := range benchsuite.Curated() {
		if rest, ok := strings.CutPrefix(s.Name, "SimLoop/"); ok {
			b.Run(rest, s.Run)
		}
	}
}

// BenchmarkOpenSimLoop measures the flat-engine open-system loop —
// Poisson arrivals, replicate-everywhere placement, cancel-on-completion
// racing — with everything but the pooled replay precomputed, via the
// curated suite.
func BenchmarkOpenSimLoop(b *testing.B) {
	for _, s := range benchsuite.Curated() {
		if rest, ok := strings.CutPrefix(s.Name, "OpenSimLoop/"); ok {
			b.Run(rest, s.Run)
		}
	}
}

// BenchmarkOpenStreaming runs E11 (open-system response times under
// placement and cancellation policies).
func BenchmarkOpenStreaming(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkAdversaryPipeline measures the full adversarial evaluation
// loop used throughout the experiments: plan, perturb against the
// placement, execute, score.
func BenchmarkAdversaryPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := adversary.Theorem1Instance(10, 24, 2)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := core.NewPlan(in, core.Config{Strategy: core.NoReplication})
		if err != nil {
			b.Fatal(err)
		}
		if err := adversary.Apply(in, plan.Placement); err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemAware measures SABO/ABO on a mid-size instance.
func BenchmarkMemAware(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 5_000, M: 16, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.Run("SABO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memaware.SABO(in, memaware.Config{Delta: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ABO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memaware.ABO(in, memaware.Config{Delta: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBoundsEvaluation measures the analytic formula layer (it
// should be effectively free next to the simulations).
func BenchmarkBoundsEvaluation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{1.1, 1.5, 2} {
			_ = bounds.RatioReplication(210, alpha)
		}
		for _, cfg := range experiments.Table2Configs() {
			_ = bounds.MemoryMakespan(cfg.M, cfg.Alpha2, cfg.Rho, cfg.Rho, nil)
		}
	}
}
