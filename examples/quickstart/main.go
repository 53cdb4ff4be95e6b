// Quickstart: schedule a workload with uncertain processing times
// under each of the paper's replication strategies and compare the
// resulting makespans against the offline optimum.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func main() {
	// 1. Draw a workload: 120 tasks for 12 machines whose runtimes are
	// only known within a factor α = 1.8.
	in := workload.MustNew(workload.Spec{
		Name:  "uniform",
		N:     120,
		M:     12,
		Alpha: 1.8,
		Seed:  7,
	})

	// 2. Reality diverges from the estimates: perturb the actual
	// processing times within the uncertainty bounds.
	uncertainty.LogNormal{Sigma: 0.4}.Perturb(in, nil, rng.New(8))

	// 3. Run every strategy. Phase 1 places the data using only the
	// estimates; phase 2 dispatches online and discovers each task's
	// real duration when it finishes.
	configs := []core.Config{
		{Strategy: core.NoReplication},
		{Strategy: core.Groups, Groups: 6}, // 2 replicas per task
		{Strategy: core.Groups, Groups: 3}, // 4 replicas per task
		{Strategy: core.ReplicateEverywhere},
		{Strategy: core.Oracle}, // clairvoyant reference
	}

	tb := report.NewTable("strategy", "replicas/task", "makespan",
		"ratio vs C* (upper)", "proved guarantee")
	for _, cfg := range configs {
		out, err := core.Run(in, cfg)
		if err != nil {
			log.Fatalf("quickstart: %v", err)
		}
		guarantee := "n/a"
		if g := out.Guarantee; g == g { // NaN check without math import
			guarantee = fmt.Sprintf("%.3f", g)
		}
		tb.AddRow(cfg.Strategy.String(), out.ReplicasPerTask, out.Makespan,
			out.RatioUpper, guarantee)
	}
	fmt.Printf("%d tasks, %d machines, α=%.1f — more replication, better makespan:\n\n",
		in.N(), in.M, in.Alpha)
	fmt.Print(tb)
}
