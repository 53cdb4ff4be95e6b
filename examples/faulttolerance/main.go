// Fault tolerance: the second life of replicas.
//
// The paper's introduction observes that Hadoop-style systems already
// replicate data to tolerate hardware faults, and that the same
// replicas give the scheduler room to adapt. This example runs one
// workload through a machine crash under increasing replication and
// shows both effects at once: survivability and crash slowdown.
//
// Run with:
//
//	go run ./examples/faulttolerance
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/algo"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func main() {
	const machines = 8
	in := workload.MustNew(workload.Spec{
		Name: "uniform", N: 96, M: machines, Alpha: 1.5, Seed: 55,
	})
	uncertainty.LogNormal{Sigma: 0.3}.Perturb(in, nil, rng.New(56))

	placements := []struct {
		label string
		algo  algo.Algorithm
	}{
		{"no replication", algo.LPTNoChoice()},
		{"2 replicas (k=4 groups)", algo.LSGroup(4)},
		{"4 replicas (k=2 groups)", algo.LSGroup(2)},
		{"replicate everywhere", algo.LPTNoRestriction()},
	}

	tb := report.NewTable("placement", "healthy", "after crash", "slowdown", "survives?")
	for _, p := range placements {
		pl, err := p.algo.Place(in)
		if err != nil {
			log.Fatalf("faulttolerance: %v", err)
		}
		order := p.algo.Order(in)

		healthy, err := sim.RunFlatSharded(in, pl, order, sim.FlatOptions{})
		if err != nil {
			log.Fatalf("faulttolerance: healthy run: %v", err)
		}
		h := healthy.Schedule.Makespan()

		// Machine 2 dies halfway through.
		crashed, err := sim.RunFlatSharded(in, pl, order, sim.FlatOptions{
			Failures: []sim.Failure{{Machine: 2, Time: h / 2}},
		})
		switch {
		case errors.Is(err, sim.ErrUnsurvivable):
			tb.AddRow(p.label, h, "n/a", "n/a", "NO: data lost")
		case err != nil:
			log.Fatalf("faulttolerance: crash run: %v", err)
		default:
			c := crashed.Schedule.Makespan()
			tb.AddRow(p.label, h, c, fmt.Sprintf("%.2fx", c/h), "yes")
		}
	}

	fmt.Printf("%d tasks on %d machines; machine 2 fail-stops mid-run.\n\n", in.N(), machines)
	fmt.Print(tb)
	fmt.Println()
	fmt.Println("Reading: replicas bought for fault tolerance double as scheduling")
	fmt.Println("slack — the more machines hold a task's data, the cheaper the crash.")
}
