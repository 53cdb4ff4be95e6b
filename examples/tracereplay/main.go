// Trace replay: importing a real workload.
//
// Production schedulers are driven by traces, not synthetic
// generators. This example writes a workload out as CSV (the
// interchange format of workload.WriteCSV), re-imports it as a
// downstream user would import their own cluster trace, and replays
// it under every replication strategy — demonstrating the CSV
// round-trip API and the deterministic replay of a fixed trace.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func main() {
	// 1. Produce a trace. A real deployment would export this from its
	// job history ("estimate" = user-requested runtime, "actual" =
	// measured runtime, "size" = input partition bytes).
	original := workload.MustNew(workload.Spec{
		Name: "mapreduce", N: 150, M: 10, Alpha: 2, Seed: 77,
	})
	uncertainty.Extremes{}.Perturb(original, nil, rng.New(78))

	var trace bytes.Buffer
	if err := workload.WriteCSV(&trace, original); err != nil {
		log.Fatalf("tracereplay: export: %v", err)
	}
	fmt.Printf("exported trace: %d bytes, first line %q\n\n",
		trace.Len(), firstLine(trace.String()))

	// 2. Import it back, as an external user would with their own CSV.
	in, err := workload.ReadCSV(&trace, 10, 2)
	if err != nil {
		log.Fatalf("tracereplay: import: %v", err)
	}

	// 3. Replay under each strategy. Replays are exactly reproducible:
	// the trace fixes both estimates and actuals.
	tb := report.NewTable("strategy", "makespan", "ratio vs C* (upper)", "utilization")
	for _, cfg := range []core.Config{
		{Strategy: core.NoReplication},
		{Strategy: core.Groups, Groups: 5},
		{Strategy: core.Groups, Groups: 2},
		{Strategy: core.ReplicateEverywhere},
	} {
		out, err := core.Run(in, cfg)
		if err != nil {
			log.Fatalf("tracereplay: %v", err)
		}
		metrics := out.Schedule.ComputeMetrics()
		tb.AddRow(fmt.Sprintf("%s (%d replicas)", cfg.Strategy, out.ReplicasPerTask),
			out.Makespan, out.RatioUpper, fmt.Sprintf("%.1f%%", 100*metrics.Utilization))
	}
	fmt.Print(tb)

	// 4. Drill into the worst machine of the no-replication run.
	out, err := core.Run(in, core.Config{Strategy: core.NoReplication})
	if err != nil {
		log.Fatal(err)
	}
	cp := out.Schedule.CriticalPath()
	fmt.Printf("\ncritical machine runs %d tasks; last three:\n", len(cp))
	for _, j := range cp[max(0, len(cp)-3):] {
		a := out.Schedule.Assignments[j]
		fmt.Printf("  task %3d: start %.4g end %.4g (ran %.4g, estimated %.4g)\n",
			j, a.Start.Seconds(), a.End.Seconds(), (a.End - a.Start).Seconds(), in.Tasks[j].Estimate)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
