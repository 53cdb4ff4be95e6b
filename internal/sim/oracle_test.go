package sim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

// The oracle: the simulator's semantics stated as naively as they can
// be, for the differential suites to hold the flat engines to. Time is
// float64 seconds, "the next event" is a linear scan over the machines,
// "the next task" is a scan over the priority order, every run
// allocates its state afresh, and inputs are trusted (the engines' own
// validation tests cover rejection). Nothing here is tuned; if a loop
// below and an engine disagree, read this one first.

// sec is x seconds quantized as the engines quantize, by
// tick.FromSeconds; it panics on a value without a tick representation.
func sec(x float64) tick.Tick {
	t, err := tick.FromSeconds(x)
	if err != nil {
		panic(err)
	}
	return t
}

// ran is the assignment of a task machine i ran from start to end
// seconds.
func ran(i int, start, end float64) sched.Assignment {
	return sched.Assignment{Machine: i, Start: sec(start), End: sec(end)}
}

// earliest returns the machine with the smallest time among those with
// on set, ties toward the lower index — the (time, machine) event order
// of every loop in the package — or -1 when none is on.
func earliest(at []float64, on []bool) int {
	best := -1
	for i := range at {
		if on[i] && (best < 0 || at[i] < at[best]) {
			best = i
		}
	}
	return best
}

// firstLeft returns the first task of order that is not started and,
// when machine ≥ 0, has a replica on machine; -1 when there is none.
func firstLeft(p *placement.Placement, order []int, started []bool, machine int) int {
	for _, j := range order {
		if !started[j] && (machine < 0 || machineEligible(p, j, machine)) {
			return j
		}
	}
	return -1
}

// oracleResult is oracleRun's outcome: the schedule and the trace.
type oracleResult struct {
	Schedule *sched.Schedule
	Trace    []Event
}

// oracleRun is the batch model: every task released at time zero, each
// machine a clock. Repeatedly, the machine that becomes available first
// takes the highest-priority unstarted task it holds a replica of; with
// a fetch penalty, a machine that has none left takes the
// highest-priority unstarted task of all and runs it FetchPenalty times
// slower. A machine that finds nothing retires: no work appears later.
// Every start and finish is recorded as it happens, the trace TraceOf
// must derive from an engine's schedule. opts.Failures is not read;
// that is oracleRunFailures.
func oracleRun(in *task.Instance, p *placement.Placement, order []int, opts FlatOptions) *oracleResult {
	n, m := in.N(), in.M
	res := &oracleResult{Schedule: sched.New(n, m)}
	started := make([]bool, n)
	clock := make([]float64, m)
	working := make([]bool, m)
	for i := range working {
		working[i] = true
	}
	for {
		i := earliest(clock, working)
		if i < 0 {
			break
		}
		j, remote := firstLeft(p, order, started, i), false
		if j < 0 && opts.FetchPenalty != 0 {
			j, remote = firstLeft(p, order, started, -1), true
		}
		if j < 0 {
			working[i] = false
			continue
		}
		started[j] = true
		executed := in.Tasks[j].Actual
		if remote {
			executed *= opts.FetchPenalty
		}
		start, end := clock[i], clock[i]+executed
		res.Schedule.Assignments[j] = ran(i, start, end)
		res.Trace = append(res.Trace,
			Event{Time: sec(start), Machine: i, Task: j, Kind: "start"},
			Event{Time: sec(end), Machine: i, Task: j, Kind: "finish"})
		clock[i] = end
	}
	sortTrace(res.Trace)
	return res
}

// oracleRunFailures is the batch model under fail-stop crashes. A
// machine accepts no work at or after its crash; a task running across
// the crash is lost, its assignment erased, and it is offered again —
// ahead of the priority order — to the other machines holding a
// replica. A machine that finds no work goes dormant instead of
// retiring, and a loss wakes the dormant ones. A crash is processed
// before the machine events of its instant, so a task ending exactly at
// its machine's crash has completed. The run fails with ErrUnsurvivable
// as soon as a crash leaves an unfinished task with no live replica and
// no live machine running it. The schedule holds each task's final
// execution.
func oracleRunFailures(in *task.Instance, p *placement.Placement, order []int,
	failures []Failure) (*sched.Schedule, error) {
	n, m := in.N(), in.M
	s := sched.New(n, m)
	crashes := slices.Clone(failures)
	sort.Slice(crashes, func(a, b int) bool {
		if crashes[a].Time != crashes[b].Time {
			return crashes[a].Time < crashes[b].Time
		}
		return crashes[a].Machine < crashes[b].Machine
	})
	rank := make([]int, n)
	for pos, j := range order {
		rank[j] = pos
	}

	started := make([]bool, n) // handed out from the order; a lost task comes back through lost
	completed := make([]bool, n)
	completedCount := 0
	var lost []int
	dead := make([]bool, m)
	dormant := make([]bool, m)
	dormantAt := make([]float64, m)
	running := make([]int, m) // the task in flight, -1 when none
	idleAt := make([]float64, m)
	awake := make([]bool, m) // will ask for work at idleAt
	for i := range running {
		running[i], awake[i] = -1, true
	}
	finish := func(i int) {
		completed[running[i]] = true
		completedCount++
		running[i] = -1
	}
	runningAlive := func(j int) bool {
		for i := range running {
			if running[i] == j && !dead[i] {
				return true
			}
		}
		return false
	}

	for {
		i := earliest(idleAt, awake)
		if len(crashes) > 0 && (i < 0 || crashes[0].Time <= idleAt[i]) {
			c := crashes[0]
			crashes = crashes[1:]
			if dead[c.Machine] {
				continue
			}
			dead[c.Machine], awake[c.Machine] = true, false
			if j := running[c.Machine]; j >= 0 {
				if idleAt[c.Machine] <= c.Time {
					finish(c.Machine)
				} else {
					s.Assignments[j] = sched.Assignment{}
					running[c.Machine] = -1
					if !survivable(p, j, dead) {
						return nil, fmt.Errorf("%w: task %d only on machine %d", ErrUnsurvivable, j, c.Machine)
					}
					lost = append(lost, j)
					for k := range dormant {
						if dormant[k] && !dead[k] {
							dormant[k], awake[k] = false, true
							idleAt[k] = max(c.Time, dormantAt[k])
						}
					}
				}
			}
			for j := 0; j < n; j++ {
				if !completed[j] && !survivable(p, j, dead) && !runningAlive(j) {
					return nil, fmt.Errorf("%w: task %d", ErrUnsurvivable, j)
				}
			}
			continue
		}
		if i < 0 {
			break
		}
		now := idleAt[i]
		if running[i] >= 0 {
			finish(i)
		}
		// Lost tasks first: the highest-priority one this machine holds.
		j, at := -1, -1
		for k, cand := range lost {
			if machineEligible(p, cand, i) && (j < 0 || rank[cand] < rank[j]) {
				j, at = cand, k
			}
		}
		if j >= 0 {
			lost = slices.Delete(lost, at, at+1)
		} else if j = firstLeft(p, order, started, i); j >= 0 {
			started[j] = true
		} else {
			awake[i], dormant[i], dormantAt[i] = false, true, now
			continue
		}
		running[i] = j
		idleAt[i] = now + in.Tasks[j].Actual
		s.Assignments[j] = ran(i, now, idleAt[i])
	}
	if completedCount != n {
		return nil, fmt.Errorf("sim: %d of %d tasks never completed", n-completedCount, n)
	}
	return s, nil
}

// oracleRunOpen is the open system: task j arrives at arrive[j]
// (non-decreasing) and from then on waits at every machine of its
// replica set; an idle machine starts the highest-priority waiting task
// that is still worth starting and is dormant when there is none, until
// an arrival wakes it. Arrivals go before machine events of the same
// instant. Under CancelOnStart a task one machine has started is
// skipped by the others. Under CancelOnCompletion every machine of the
// set starts its own copy as it frees up; the first to complete wins,
// and each other running copy is cancelled — its time so far plus
// CancelCost is wasted, and its machine is free again CancelCost later.
func oracleRunOpen(in *task.Instance, p *placement.Placement, order []int, arrive []float64,
	opts OpenOptions) *OpenResult {
	n, m := in.N(), in.M
	res := &OpenResult{Schedule: sched.New(n, m), Responses: make([]float64, n)}
	rank := make([]int, n)
	for pos, j := range order {
		rank[j] = pos
	}
	waiting := make([][]int, m) // per machine: ranks of the arrived tasks it has not looked at, ascending
	started := make([]bool, n)
	done := make([]bool, n)
	running := make([]int, m) // the copy in flight, -1 when none
	runStart := make([]float64, m)
	wakeAt := make([]float64, m)
	awake := make([]bool, m) // busy until wakeAt, or due to look for work then
	for i := range running {
		running[i] = -1
	}
	wake := func(i int, t float64) { awake[i], wakeAt[i] = true, t }

	arrived := 0
	for {
		i := earliest(wakeAt, awake)
		if arrived < n && (i < 0 || arrive[arrived] <= wakeAt[i]) {
			j := arrived
			arrived++
			for _, k := range p.Sets[j] {
				at, _ := slices.BinarySearch(waiting[k], rank[j])
				waiting[k] = slices.Insert(waiting[k], at, rank[j])
				if !awake[k] {
					wake(k, arrive[j])
				}
			}
			continue
		}
		if i < 0 {
			break
		}
		now := wakeAt[i]
		awake[i] = false

		if j := running[i]; j >= 0 { // its copy completes, and wins
			running[i], done[j] = -1, true
			res.Responses[j] = now - arrive[j]
			res.End = max(res.End, now)
			res.Schedule.Assignments[j] = ran(i, runStart[i], now)
			for k := range running { // only CancelOnCompletion has other copies in flight
				if running[k] == j {
					running[k] = -1
					res.CancelledReplicas++
					res.WastedTime += (now - runStart[k]) + opts.CancelCost
					res.End = max(res.End, now+opts.CancelCost)
					wake(k, now+opts.CancelCost)
				}
			}
		}

		for len(waiting[i]) > 0 {
			j := order[waiting[i][0]]
			waiting[i] = waiting[i][1:]
			if done[j] || (opts.Policy == CancelOnStart && started[j]) {
				continue
			}
			started[j] = true
			running[i], runStart[i] = j, now
			executed := in.Tasks[j].Actual
			if opts.Duration != nil {
				executed = opts.Duration(j, i)
			}
			wake(i, now+executed)
			break
		}
	}
	return res
}
