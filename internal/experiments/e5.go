package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() { register("e5", "E5: algorithm throughput scaling", runE5) }

// runE5 measures the library's own scalability: end-to-end wall time and
// task throughput of the two-phase pipeline as the task count grows.
// The event-driven simulator is O((n + m + R) log m) where R is the
// total replica count, so throughput should stay roughly flat in n
// for group placements and degrade only for full replication
// (R = n·m).
func runE5(w *Sink, opts Options) error {
	sizes := []int{1_000, 10_000, 100_000}
	if opts.Quick {
		sizes = []int{1_000, 5_000}
	}
	const m = 64
	src := rng.New(opts.Seed + 505)

	cfgs := []struct {
		label string
		cfg   core.Config
	}{
		{"no-replication", core.Config{Strategy: core.NoReplication}},
		{"groups k=8", core.Config{Strategy: core.Groups, Groups: 8}},
		{"everywhere", core.Config{Strategy: core.ReplicateEverywhere}},
	}

	tb := report.NewTable("n", "strategy", "wall time", "tasks/sec")
	runner := getRunner()
	defer putRunner(runner)
	for _, n := range sizes {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: src.Uint64(),
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(src.Uint64()))
		for _, c := range cfgs {
			//lint:ignore determinism e5 measures wall-clock throughput by design; its table reports timings, not schedule quality
			start := time.Now()
			if _, err := runner.Run(in, c.cfg); err != nil {
				return err
			}
			//lint:ignore determinism e5 measures wall-clock throughput by design; its table reports timings, not schedule quality
			elapsed := time.Since(start)
			rate := float64(n) / elapsed.Seconds()
			tb.AddRow(n, c.label, elapsed.Round(time.Microsecond).String(),
				fmt.Sprintf("%.3g", rate))
		}
	}
	fmt.Fprintf(w, "m=%d machines; single run per cell (see bench_test.go for\n", m)
	fmt.Fprintln(w, "statistically robust numbers via testing.B).")
	return tb.Render(w)
}
