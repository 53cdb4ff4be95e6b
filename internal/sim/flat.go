package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/loadheap"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

var (
	simFlatRuns    = obs.GetCounter("sim.flat_runs")
	simFlatShards  = obs.GetCounter("sim.flat_shards")
	flatOpenRuns   = obs.GetCounter("sim.flat_open_runs")
	flatOpenShards = obs.GetCounter("sim.flat_open_shards")
)

// FlatOptions configures a batch run: the policies a caller may attach
// to the one list-scheduling event loop.
type FlatOptions struct {
	// Failures injects fail-stop machine crashes: a task running across
	// a crash is lost and re-offered, ahead of the pending sets, to the
	// other machines holding a replica; the schedule records each task's
	// final execution, and a crash that strands a task fails the run with
	// ErrUnsurvivable. Such a run hands out no dispatch record, so
	// TraceOf finds no events in its schedule.
	Failures []Failure
	// FetchPenalty, when non-zero, lets a machine run tasks it holds no
	// replica of — the alternative to replication the paper dismisses as
	// prohibitive, priced by experiment e9: a machine whose local work
	// has run out takes the highest-priority unstarted task from anywhere
	// and is busy FetchPenalty times its actual time. Must be finite and
	// at least 1; incompatible with Failures (no caller combines them).
	// The schedule verifies under VerifyDurations.
	FetchPenalty float64
}

// Runner is the data-oriented simulator: the hot state of a run lives
// in flat structure-of-arrays slices indexed by task and machine IDs
// (no pointers to chase), simulated time is int64 fixed-point
// (tick.Tick), and execution is decomposed into independent shards —
// the connected components of the "shares a replica set" relation over
// machines. Under the paper's group:k placement each replica group is
// one shard; under no-replication every machine is its own shard and
// the event tree disappears entirely; under replicate-everywhere there
// is a single shard and one global event loop.
//
// A batch run (RunSharded) is the open system (RunOpenSharded) with
// every arrival at zero under CancelOnStart: the same pending sets and
// the same general loop serve both, and TestFlatOpenMatchesBatch holds
// the two byte-identical. A batch run skips what it has no use for —
// arrivals, responses, the entries an arrival pushes — and fills its
// pending sets whole at the start of each shard.
//
// Layout:
//
//	tasks    durTick[j]            executed ticks
//	         started[j]            taken by some machine yet?
//	         rank[j]               place in its shard's priority order
//	shards   shardMachines[shardOff[s]:shardOff[s+1]]  member machines
//	         rankTask[shardTaskOff[s]:shardTaskOff[s+1]]  the shard's
//	                               tasks by rank
//	         shared[s]             pending set over the shard's ranks:
//	                               tasks whose replica set is the whole
//	                               shard
//	         sched.Dispatched[shardTaskOff[s]:]  batch: the shard's
//	                               tasks in the order it started them,
//	                               for sched.Verify
//	machines qTask[qOff[i]:qOff[i+1]]  machine i's narrow list: the other
//	                               tasks it holds a replica of, in
//	                               priority order
//	         narrow[i]             pending set over that list
//
// Because tasks never cross shards, every Assignment, record region
// and started flag a shard writes is disjoint from every other
// shard's, and shards replay one after another on the calling
// goroutine; int64 time makes completion times exact sums, so the
// sharded output is byte-identical to one global loop over all
// machines (Run in the tests), which the differential suites pin.
//
// The zero value is ready to use. A Runner owns the Result or
// OpenResult it returns (valid until the next call; the package-level
// entry points return caller-owned state), performs zero steady-state
// allocations across same-shaped runs, and is not safe for concurrent
// use.
type Runner struct {
	// Shard decomposition (shardOf, shardMachines, shardTasks, …).
	// shardTasks, built for open and fail-stop runs, holds each shard's
	// tasks by ID, an open shard's arrival stream (arrivals ascend by ID).
	shardSet

	// SoA task state (see Layout).
	durTick  []tick.Tick // none under a Duration hook
	started  []bool
	rank     []int32
	rankTask []int32

	// Narrow lists by machine (see Layout).
	qOff  []int32
	qTask []int32

	// The pending sets, in one slab zeroed in prepare (see take).
	pend   []uint64
	shared []rankSet
	narrow []rankSet

	// Open runs: arrivals in ticks; narrow task j's entries, one per
	// machine of its set, at entries[narrowOff[j]:narrowOff[j+1]] (empty
	// for a wide task), which an arrival pushes and a completion under
	// CancelOnCompletion drops, and the machine-to-slot map (a machine's
	// index in shardMachines) they are built with; the replica each
	// machine runs (a fail-stop run's too) and its start.
	arrTick    []tick.Tick
	slot       []int32
	narrowOff  []int32
	entries    []narrowEntry
	runTask    []int32 // running task, -1 if idle
	runStart   []tick.Tick
	cancelTick tick.Tick

	// raceEnd[j] is the completion tick of task j's race, valid once
	// started[j] under the race-collapse fast path (raceOK).
	raceEnd []tick.Tick
	raceOK  bool

	// Fail-stop state, sized only when Failures are present.
	dead      []bool
	completed []bool
	crashes   []mEvent

	// Event-loop scratch, reused shard after shard: the shard's machines
	// by next event tick, race-collapse cohorts, the lost tasks a
	// fail-stop shard offers again, and the tally for the run's counters.
	tree  loadheap.Tree[tick.Tick]
	parks parkSet
	retry []int32
	stats spanStats

	// The run so far: the outcome of the shards replayed, and of the
	// errors they raised the one at the least (time, machine) event key,
	// the one a sequential run over the global event order would have
	// hit first.
	out   openTally
	err   error
	errAt mEvent

	// The caller's options for the current run, copied here so the
	// engine passes a pointer to already-heap-resident state around
	// instead of letting a parameter escape per call; release clears them
	// so a Failures slice or Duration closure is not retained. A batch
	// run leaves open at its zero value (CancelOnStart, no hook), an open
	// run batch at its.
	batch   FlatOptions
	open    OpenOptions
	openRun bool

	sched   sched.Schedule
	res     Result
	openRes OpenResult
}

// RunFlat executes the instance on the flat engine sequentially (one
// global event loop, no shard decomposition). The returned Result is
// freshly allocated and caller-owned.
func RunFlat(in *task.Instance, p *placement.Placement, order []int, opts FlatOptions) (*Result, error) {
	var r Runner
	return r.runBatch(in, p, order, opts, false)
}

// RunFlatSharded is RunFlat through the shard decomposition; see
// Runner.RunSharded.
func RunFlatSharded(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions) (*Result, error) {
	var r Runner
	return r.RunSharded(in, p, order, opts)
}

// RunSharded executes list scheduling over the placement and priority
// order, every task released at time zero: it partitions the instance
// into independent shards (the connected components of machines linked
// by shared replica sets), replays each, and merges the results. The
// Schedule and error are byte-identical to one global event loop, and
// so is the trace TraceOf derives: shards share no tasks, int64 tick
// sums are exact, and equal-key trace events are same-machine and
// therefore same-shard.
func (r *Runner) RunSharded(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions) (*Result, error) {
	return r.runBatch(in, p, order, opts, true)
}

// TakeSchedule hands the schedule of the Runner's last run over to the
// caller, who owns it from then on: the Runner forgets it, its next run
// grows a new one, and the Result or OpenResult that carried it is
// stale. A pooled Runner whose caller keeps each schedule thus keeps
// the rest of its state warm without cloning the schedule beside it.
func (r *Runner) TakeSchedule() *sched.Schedule {
	s := new(sched.Schedule)
	*s, r.sched = r.sched, sched.Schedule{}
	return s
}

// RunOpenSharded executes an open-system simulation through the shard
// decomposition. Tasks arrive at the given times (indexed by task ID,
// non-decreasing, non-negative and finite); replica sets must satisfy
// placement.CheckSets, and arrivals, durations and CancelCost must be
// tick-representable. The Schedule, Responses, CancelledReplicas,
// WastedTime, End and error are byte-identical to one global event
// loop: every cross-shard reduction (per-task writes, int64 tick sums,
// max, counts) is order-independent.
func (r *Runner) RunOpenSharded(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	return r.runOpen(in, p, order, arrive, opts, true)
}

func (r *Runner) runBatch(in *task.Instance, p *placement.Placement, order []int,
	o FlatOptions, sharded bool) (*Result, error) {
	defer r.release()
	r.reset(in.N(), in.M)
	// Copy the options into the reused field instead of taking &o: the
	// address of a parameter escapes and would cost one heap allocation
	// per call, breaking the zero-allocation invariant
	// TestKernelAllocations gates.
	r.batch = o
	if err := r.run(in, p, order, nil, sharded); err != nil {
		return nil, err
	}
	if len(r.batch.Failures) > 0 {
		// No dispatch record: a shard that met a crash erases lost tasks
		// and starts them again, and writes none.
		r.sched.Dispatched = r.sched.Dispatched[:0]
	}
	return &r.res, nil
}

func (r *Runner) runOpen(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, o OpenOptions, sharded bool) (*OpenResult, error) {
	defer r.release()
	r.reset(in.N(), in.M)
	r.open, r.openRun = o, true
	if err := r.run(in, p, order, arrive, sharded); err != nil {
		return nil, err
	}
	// A saturated event time failed its shard; a waste sum can still
	// clamp with every event in range.
	if r.out.wasted == tick.Max {
		return nil, fmt.Errorf("sim: open run's wasted time: %w", tick.ErrOverflow)
	}
	openCancellations.Add(int64(r.out.cancelled))
	r.openRes.CancelledReplicas = int(r.out.cancelled)
	r.openRes.WastedTime = r.out.wasted.Seconds()
	r.openRes.End = r.out.end.Seconds()
	return &r.openRes, nil
}

// release drops the caller's options once a run is over.
func (r *Runner) release() {
	r.batch, r.open = FlatOptions{}, OpenOptions{}
}

// run prepares the state, replays every shard and returns the run's
// error: the one a sequential global event loop would hit first, or a
// count of tasks that never ran.
func (r *Runner) run(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, sharded bool) error {
	n := in.N()
	if err := r.prepare(in, p, order, arrive, sharded); err != nil {
		return err
	}
	for s := 0; s < r.nShards; s++ {
		r.replaySpan(in, p, s)
	}
	if r.openRun {
		flatOpenRuns.Inc()
		flatOpenShards.Add(int64(r.nShards))
		openEventsPopped.Add(r.stats.popped)
	} else {
		simFlatRuns.Inc()
		simFlatShards.Add(int64(r.nShards))
		simEventsPopped.Add(r.stats.popped)
		queueEntries.Add(int64(len(r.qTask)))
		sharedDispatches.Add(r.stats.shared)
	}
	shardsLinear.Add(r.stats.linear)
	shardsUniform.Add(r.stats.uniform)
	shardsRace.Add(r.stats.race)
	shardsGeneral.Add(r.stats.general)
	if r.err != nil {
		return r.err
	}
	if done := int(r.out.done); done != n {
		if len(r.crashes) > 0 {
			return fmt.Errorf("sim: %d of %d tasks never completed", n-done, n)
		}
		return fmt.Errorf("sim: %d of %d tasks never executed", n-done, n)
	}
	return nil
}

// fail records a shard error raised at key, keeping the least key of
// the run.
func (r *Runner) fail(key mEvent, err error) {
	if r.err == nil || mLess(key, r.errAt) {
		r.err, r.errAt = err, key
	}
}

// reset readies the Runner for an n-task, m-machine run: options,
// tallies, error, crash list and results start empty. The slices are
// not touched here: prepare regrows each one a run reads to its exact
// size, keeping its capacity, and the mode flags (openRun, raceOK,
// FetchPenalty, the crash list) keep every loop off the ones a run does
// not build.
func (r *Runner) reset(n, m int) {
	r.crashes = r.crashes[:0]
	r.stats, r.out, r.err = spanStats{}, openTally{}, nil
	r.release()
	r.openRun, r.raceOK = false, false
	r.sched.Reset(n, m)
	r.res = Result{Schedule: &r.sched}
	r.openRes = OpenResult{Schedule: &r.sched, Responses: r.openRes.Responses[:0]}
}

// prepare validates the inputs and builds the SoA state: durations (and
// arrivals) in ticks, the shard decomposition, the shard ranks, the
// narrow lists and the pending sets' layout, and — when failures are
// injected — the crash list and fail-stop arrays.
func (r *Runner) prepare(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, sharded bool) error {
	n, m := in.N(), in.M
	if p.N() != n || p.M != m {
		return fmt.Errorf("sim: placement shape %dx%d does not match instance %dx%d",
			p.N(), p.M, n, m)
	}
	if len(order) != n {
		return fmt.Errorf("sim: priority order has %d entries for %d tasks", len(order), n)
	}
	if r.openRun && len(arrive) != n {
		return fmt.Errorf("sim: %d arrival times for %d tasks", len(arrive), n)
	}
	if err := placement.CheckSets(p.Sets, m); err != nil {
		return err
	}
	var err error
	if r.openRun {
		err = r.prepareArrivals(arrive)
	} else {
		err = r.checkBatch()
	}
	if err != nil {
		return err
	}
	steal := r.batch.FetchPenalty != 0

	// Permutation check; started doubles as the seen-scratch.
	r.started = growZero(r.started, n)
	for _, j := range order {
		if j < 0 || j >= n || r.started[j] {
			return fmt.Errorf("sim: priority order is not a permutation (task %d)", j)
		}
		r.started[j] = true
	}
	clear(r.started)

	// Executed durations in ticks; under a Duration hook the executed
	// time depends on the machine and is converted at dispatch. The
	// minimum gates the race-collapse fast path (see flatopen.go).
	minDur := tick.Max
	if r.open.Duration == nil {
		r.durTick = grow(r.durTick, n)
		for j := 0; j < n; j++ {
			t, err := tick.FromSeconds(in.Tasks[j].Actual)
			if err != nil {
				return fmt.Errorf("sim: task %d actual time: %w", j, err)
			}
			if t < 0 {
				return fmt.Errorf("sim: task %d has negative actual time %v", j, in.Tasks[j].Actual)
			}
			r.durTick[j] = t
			minDur = min(minDur, t)
		}
	}
	if r.openRun {
		r.raceOK = r.open.Policy == CancelOnCompletion && r.open.Duration == nil && minDur > 0
		if r.raceOK {
			r.raceEnd = grow(r.raceEnd, n) // written at race start before any read
		}
		r.runStart = growZero(r.runStart, m)
		r.openRes.Responses = growZero(r.openRes.Responses, n)
	}

	// Under a fetch penalty any machine may run any task: one shard, and
	// every task on the narrow lists so the shared set can hold them all.
	if sharded && !steal {
		r.partition(p)
	} else {
		r.partitionTrivial(m)
	}

	// One counting pass sizes each shard's range of tasks, each machine's
	// narrow list and, in an open run, each task's entries.
	r.shardTaskOff = growZero(r.shardTaskOff, r.nShards+1)
	r.qOff = growZero(r.qOff, m+1)
	if r.openRun {
		r.narrowOff = growZero(r.narrowOff, n+1)
		r.slot = grow(r.slot, m)
		for sl, i := range r.shardMachines {
			r.slot[i] = int32(sl)
		}
	}
	for j, set := range p.Sets {
		s := r.shardOf[set[0]] // the task's shard: its sets lie inside one
		r.shardTaskOff[s+1]++
		narrow := steal || !r.wide(s, set)
		if r.openRun {
			r.narrowOff[j+1] = r.narrowOff[j]
			if narrow {
				r.narrowOff[j+1] += int32(len(set))
			}
		}
		if narrow {
			for _, i := range set {
				r.qOff[i+1]++
			}
		}
	}
	for s := 0; s < r.nShards; s++ {
		r.shardTaskOff[s+1] += r.shardTaskOff[s]
	}
	for i := 0; i < m; i++ {
		r.qOff[i+1] += r.qOff[i]
	}
	r.qTask = grow(r.qTask, int(r.qOff[m]))
	if r.openRun {
		r.entries = grow(r.entries, int(r.narrowOff[n]))
	}
	if r.openRun || len(r.batch.Failures) > 0 {
		r.buildTaskLists(p)
		r.runTask = grow(r.runTask, m)
		for i := range r.runTask {
			r.runTask[i] = -1
		}
	}

	// One pass over the priority order numbers each shard's tasks in the
	// order its dispatcher takes them and fills the narrow lists, which
	// fixes a narrow task's index in each list once for the whole run. The
	// union-find scratch, long done with, holds the fill cursors: one per
	// shard, then one per machine.
	r.rank = grow(r.rank, n)
	r.rankTask = grow(r.rankTask, n)
	cur := growZero(r.parent, r.nShards+m)
	r.parent = cur[:0]
	next, fill := cur[:r.nShards], cur[r.nShards:]
	for _, j := range order {
		set := p.Sets[j]
		s := r.shardOf[set[0]]
		k := next[s]
		next[s]++
		r.rank[j] = k
		r.rankTask[r.shardTaskOff[s]+k] = int32(j)
		if !steal && r.wide(s, set) {
			continue
		}
		var es []narrowEntry
		if r.openRun {
			es = r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
		}
		for x, i := range set {
			if es != nil {
				es[x] = narrowEntry{slot: r.slot[i], idx: fill[i]}
			}
			r.qTask[r.qOff[i]+fill[i]] = int32(j)
			fill[i]++
		}
	}

	// The pending sets: a shard's shared set over its ranks, a machine's
	// over its narrow list, all empty in one zeroed slab.
	r.shared = grow(r.shared, r.nShards)
	r.narrow = grow(r.narrow, m)
	words := int32(0)
	for s := range r.shared {
		words = r.shared[s].layout(words, int(r.shardTaskOff[s+1]-r.shardTaskOff[s]))
	}
	for i := range r.narrow {
		words = r.narrow[i].layout(words, int(r.qOff[i+1]-r.qOff[i]))
	}
	r.pend = growZero(r.pend, int(words))

	if !r.openRun {
		// Sized on a fail-stop run too, which hands out no record (runBatch
		// truncates it): its crash-free shards write one as any batch run's
		// do, and its fail-stop shards none.
		r.sched.Dispatched = grow(r.sched.Dispatched, n)
		if len(r.batch.Failures) > 0 {
			return r.prepareFailures(in)
		}
	}
	return nil
}

// prepareArrivals validates an open run's options and arrival times
// and converts them to ticks.
func (r *Runner) prepareArrivals(arrive []float64) error {
	cost := r.open.CancelCost
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 0 {
		return fmt.Errorf("sim: cancel cost %v (want finite, non-negative)", cost)
	}
	ct, err := tick.FromSeconds(cost)
	if err != nil {
		return fmt.Errorf("sim: cancel cost: %w", err)
	}
	r.cancelTick = ct
	if r.open.Policy != CancelOnStart && r.open.Policy != CancelOnCompletion {
		return fmt.Errorf("sim: unknown cancel policy %d", r.open.Policy)
	}
	r.arrTick = grow(r.arrTick, len(arrive))
	prev := 0.0
	for j, t := range arrive {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("sim: arrival %d is %v (want finite, non-negative)", j, t)
		}
		if t < prev {
			return fmt.Errorf("sim: arrival times not sorted at task %d", j)
		}
		prev = t
		at, err := tick.FromSeconds(t)
		if err != nil {
			return fmt.Errorf("sim: arrival %d: %w", j, err)
		}
		r.arrTick[j] = at
	}
	return nil
}

// checkBatch validates a batch run's options.
func (r *Runner) checkBatch() error {
	o := &r.batch
	if o.FetchPenalty == 0 {
		return nil
	}
	if !(o.FetchPenalty >= 1) || math.IsInf(o.FetchPenalty, 1) {
		return fmt.Errorf("sim: fetch penalty %v (want finite, at least 1)", o.FetchPenalty)
	}
	if len(o.Failures) > 0 {
		return fmt.Errorf("sim: a fetch penalty cannot be combined with Failures")
	}
	return nil
}

func (r *Runner) prepareFailures(in *task.Instance) error {
	n, m := in.N(), in.M
	for _, f := range r.batch.Failures {
		if f.Machine < 0 || f.Machine >= m {
			return fmt.Errorf("sim: failure on invalid machine %d", f.Machine)
		}
		if f.Time < 0 {
			return fmt.Errorf("sim: failure at negative time %v", f.Time)
		}
		t, err := tick.FromSeconds(f.Time)
		if err != nil {
			return fmt.Errorf("sim: failure time on machine %d: %w", f.Machine, err)
		}
		r.crashes = append(r.crashes, mEvent{t: t, m: int32(f.Machine)})
	}
	// Deterministic crash order: (time, machine), the same total order
	// the event tree uses. Duplicate keys are identical crashes; the
	// second is a no-op on an already-dead machine.
	sort.Slice(r.crashes, func(a, b int) bool { return mLess(r.crashes[a], r.crashes[b]) })

	r.dead = growZero(r.dead, m)
	r.completed = growZero(r.completed, n)
	return nil
}

// grow returns s at length n, retaining capacity and reallocating only
// on growth, for a slice every element of which is overwritten before
// it is read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero is grow with the live region cleared.
func growZero[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}
