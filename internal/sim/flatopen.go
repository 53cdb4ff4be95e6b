package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

// This file implements the open-system streaming mode: tasks arrive
// over time instead of all being released at t=0, the metric is the
// per-task response-time distribution instead of makespan, and
// replicated tasks interact through an explicit CancelPolicy. It is
// built on the flat architecture of the batch FlatRunner — SoA state on
// tick.Tick fixed-point time, the same shard decomposition — with the
// two-level tick wheel of wheel.go as the event structure.
// oracleRunOpen (oracle_test.go) states the same semantics naively;
// flat_open_test.go pins the equivalence.
//
// # Event model
//
// Two deterministic streams drive a shard's loop: the arrival times
// (indexed by task ID, non-decreasing) and the machine events
// (completions and wake-ups) in (time, machine index) order, each
// carrying a per-machine sequence number so that a cancellation can
// invalidate a scheduled completion without deleting it (the stale
// entry is skipped when popped). At equal times arrivals go first, so a
// machine going idle at t sees every task that arrived at t.
//
// # Why the union-find partition carries over
//
// Open mode adds arrivals and cancellation to batch list scheduling,
// and neither crosses a shard boundary: an arrival is per-task and
// only touches the machines of that task's replica set, and a
// cancellation race is between replicas of one task — again inside
// one replica set. So the connected components of the "shares a
// replica set" relation are still fully independent simulations, and
// shards run on par workers with plain writes into disjoint task-,
// machine-, and shard-indexed slots. The merged outputs are
// byte-identical to the sequential order because every cross-shard
// reduction is interleaving-independent: responses and assignments are
// per-task, wasted time is an int64 tick sum, End is a max, counts are
// sums.
//
// # Why the per-machine queues became heaps
//
// Keeping each machine's arrived-eligible tasks as a position-sorted
// slice with memmove insertion (the oracle's way) is, under
// replicate-all, O(n) per insertion per machine — O(n²·m) total, a
// measured 1000× gap to the batch engine. Here a machine's pending
// positions are a binary min-heap in a CSR slab (O(log n) insert), and
// a shard whose every replica set is the whole shard — the
// replicate-all and group:k cases, detected as len(set) == shard size,
// which CheckSets' strictly-ascending invariant makes equivalent to
// set == shard — shares a single heap for the whole shard instead of
// mirroring every arrival into every machine's heap:
//
//   - CancelOnStart: the popped task starts immediately and every other
//     machine would skip it forever after, so a shared pop is exactly
//     the per-machine skip rule.
//   - CancelOnCompletion: racing machines must all see a not-yet-done
//     task, so dispatch peeks the top (popping only entries whose task
//     is done — a permanent, machine-independent condition). A machine
//     is never racing itself: it consults the heap only while idle.
//
// # Race collapse (the uniform CancelOnCompletion fast path)
//
// Without a Duration hook every replica of a task shares one executed
// duration, which makes racing deterministic at dispatch time: the
// replica that starts first completes first (ties by machine index),
// so the winner of a race is the lowest-indexed machine of the first
// dispatch cohort, and every machine that joins a started race is a
// guaranteed loser whose cancellation time (race end), wasted time
// ((race end − join) + cancel cost) and wake-up (race end + cost) are
// all known the moment it joins. replayUniformRace exploits this: only
// winner completions ride the wheel (~1 event per task, no stale
// entries at all), while losers are accounted in O(1) per cohort and
// parked as per-tick machine bitmasks that rejoin the next race as a
// block. That turns the replicate-everywhere benchmark configuration
// from Θ(n·m) wheel events into Θ(n) — the difference between ~200k
// and several million tasks/s at m=64. Cohort masks are ⌈machines/64⌉
// words from the worker's parkSet, so the shard's width is no gate. The
// path requires a uniform shard, CancelOnCompletion, no
// Duration hook, strictly positive durations (a zero-duration race
// could finish inside its own dispatch tick), and a strictly positive
// cancel cost (at zero cost a cancelled loser re-wakes inside its
// race's completion tick, an ordering only the wheel's push sequencing
// reproduces); anything else falls back to the wheel loops below,
// which the differential suite holds byte-identical to this one on
// the overlap.
var (
	flatOpenRuns   = obs.GetCounter("sim.flat_open_runs")
	flatOpenShards = obs.GetCounter("sim.flat_open_shards")
)

// RunFlatOpen executes an open-system run on the flat engine
// sequentially (one global event loop, no shard decomposition) and
// returns caller-owned state. Hot loops should reuse a FlatOpenRunner.
func RunFlatOpen(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	var r FlatOpenRunner
	return r.Run(in, p, order, arrive, opts)
}

// RunFlatOpenSharded is RunFlatOpen through the shard decomposition on
// the given number of workers; see FlatOpenRunner.RunSharded.
func RunFlatOpenSharded(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions, workers int) (*OpenResult, error) {
	var r FlatOpenRunner
	return r.RunSharded(in, p, order, arrive, opts, workers)
}

// FlatOpenRunner is the data-oriented open-system simulator, the
// streaming counterpart of FlatRunner. Time is fixed-point, so times
// are quantized to nanoticks (error ≤ 0.5e-9 s per duration) and list
// decisions can differ from the float-time oracle only on sub-nanotick
// ties.
//
// The zero value is ready to use. Like FlatRunner, it owns the
// OpenResult it returns (valid until the next call), performs zero
// steady-state allocations across same-shaped runs, and is not safe
// for concurrent use.
type FlatOpenRunner struct {
	// Shard decomposition (shardOf, shardMachines, taskShard,
	// shardTasks, …), shared with FlatRunner. shardTasks doubles as the
	// per-shard arrival stream: task IDs ascend within a shard and
	// arrival times ascend with task ID.
	shardSet

	// SoA task state.
	durTick []tick.Tick // executed ticks (no Duration hook)
	arrTick []tick.Tick // arrival times in ticks
	posOf   []int32     // position of task in the priority order
	started []bool
	done    []bool

	// SoA machine state.
	seq      []uint32    // current event sequence number (liveness check)
	activeM  []bool      // has a live scheduled event (busy or waking)
	runTask  []int32     // running task, -1 if idle
	runStart []tick.Tick // when the current replica started

	// Per-machine pending-position min-heaps in a CSR slab, built and
	// used only for machines of non-uniform shards.
	qPos []int32
	qOff []int32
	qLen []int32

	// Per-shard shared heaps for uniform shards (every replica set ==
	// the whole shard), in a slab partitioned by shardTaskOff.
	sharedPos []int32
	sharedLen []int32
	uniform   []bool

	// Per-shard outcome slots, written by exactly one worker each.
	shardDone      []int32
	shardCancelled []int32
	shardWasted    []tick.Tick
	shardEnd       []tick.Tick
	shardErrs      []spanError

	// Per-worker event wheel, race-collapse cohorts and tallies.
	workers []openScratch

	// raceEnd[j] is the completion tick of task j's race, valid once
	// started[j] under the race-collapse fast path (raceOK).
	raceEnd []tick.Tick
	raceOK  bool

	order      []int
	cancelTick tick.Tick
	shift      uint
	// opts is the caller's OpenOptions for the current run, copied here
	// so the engine passes a pointer to already-heap-resident state
	// around instead of letting a parameter escape per call; run clears
	// it on exit so a Duration closure is not retained.
	opts OpenOptions

	sched     sched.Schedule
	responses []float64
	res       OpenResult
}

// Reset re-initializes every field of the FlatOpenRunner for an
// n-task, m-machine run, retaining capacity. Slices are truncated here
// and regrown to their exact sizes in prepare; Run calls it
// internally.
func (r *FlatOpenRunner) Reset(n, m int) {
	r.shardSet.reset()
	r.durTick = r.durTick[:0]
	r.arrTick = r.arrTick[:0]
	r.posOf = r.posOf[:0]
	r.started = r.started[:0]
	r.done = r.done[:0]
	r.seq = r.seq[:0]
	r.activeM = r.activeM[:0]
	r.runTask = r.runTask[:0]
	r.runStart = r.runStart[:0]
	r.qPos = r.qPos[:0]
	r.qOff = r.qOff[:0]
	r.qLen = r.qLen[:0]
	r.sharedPos = r.sharedPos[:0]
	r.sharedLen = r.sharedLen[:0]
	r.uniform = r.uniform[:0]
	r.shardDone = r.shardDone[:0]
	r.shardCancelled = r.shardCancelled[:0]
	r.shardWasted = r.shardWasted[:0]
	r.shardEnd = r.shardEnd[:0]
	r.shardErrs = r.shardErrs[:0]
	r.workers = r.workers[:0] // backing entries (and their buffers) are reused
	r.raceEnd = r.raceEnd[:0]
	r.raceOK = false
	r.order = nil
	r.cancelTick = 0
	r.shift = 0
	r.opts = OpenOptions{}
	r.sched.Reset(n, m)
	if cap(r.responses) < n {
		r.responses = make([]float64, n)
	} else {
		r.responses = r.responses[:n]
		clear(r.responses)
	}
	r.res = OpenResult{Schedule: &r.sched, Responses: r.responses}
}

// Run executes an open-system simulation on the flat engine as a
// single global event loop — the sequential reference the sharded
// path is differentially tested against. Tasks arrive at the given
// times (indexed by task ID, non-decreasing, non-negative and finite);
// replica sets must satisfy placement.CheckSets (the shard
// decomposition requires it), and arrivals, durations and CancelCost
// must be tick-representable.
func (r *FlatOpenRunner) Run(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	return r.run(in, p, order, arrive, opts, 1, false)
}

// RunSharded partitions the instance into independent shards (the
// connected components of machines linked by shared replica sets),
// runs each shard's open event loop on one of workers goroutines
// (workers ≤ 0 selects GOMAXPROCS; workers == 1 runs inline with zero
// goroutines), and merges the results. The merged Schedule, Responses,
// CancelledReplicas, WastedTime, End, and error are byte-identical to
// Run for every worker count: shards share no tasks or machines, and
// every cross-shard reduction (per-task writes, int64 tick sums, max,
// counts) is interleaving-independent.
func (r *FlatOpenRunner) RunSharded(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions, workers int) (*OpenResult, error) {
	return r.run(in, p, order, arrive, opts, workers, true)
}

func (r *FlatOpenRunner) run(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, o OpenOptions, workers int, sharded bool) (*OpenResult, error) {
	defer func() { r.opts = OpenOptions{} }()
	n, m := in.N(), in.M
	r.Reset(n, m)
	// Copy the options into the reused field instead of taking &o, for
	// the same reason as FlatRunner.run: a parameter whose address
	// escapes costs one heap allocation per call.
	r.opts = o
	opts := &r.opts
	if err := r.prepare(in, p, order, arrive, opts, sharded); err != nil {
		return nil, err
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r.nShards {
		workers = r.nShards
	}
	if workers < 1 {
		workers = 1
	}
	r.ensureWorkers(workers)
	if workers <= 1 {
		sc := &r.workers[0]
		for s := 0; s < r.nShards; s++ {
			r.replaySpan(p, s, sc, opts)
		}
	} else {
		// Striped shard assignment, exactly as FlatRunner: ownership is
		// deterministic but output-irrelevant.
		par.Map(workers, workers, func(w int) struct{} {
			sc := &r.workers[w]
			for s := w; s < r.nShards; s += workers {
				r.replaySpan(p, s, sc, opts)
			}
			return struct{}{}
		})
	}
	flatOpenRuns.Inc()
	flatOpenShards.Add(int64(r.nShards))
	var stats spanStats
	for w := range r.workers {
		stats.add(r.workers[w].stats)
	}
	openEventsPopped.Add(stats.popped)
	openStaleSkipped.Add(stats.stale)
	stats.flushPaths()

	// Merge. The error a sequential global event loop would hit first
	// is the one with the minimum (time, machine) key across shards.
	errAt := -1
	for s := 0; s < r.nShards; s++ {
		if r.shardErrs[s].err == nil {
			continue
		}
		if errAt < 0 || mLess(r.shardErrs[s].key, r.shardErrs[errAt].key) {
			errAt = s
		}
	}
	if errAt >= 0 {
		return nil, r.shardErrs[errAt].err
	}
	completed := 0
	cancelled := 0
	var wasted, end tick.Tick
	for s := 0; s < r.nShards; s++ {
		completed += int(r.shardDone[s])
		cancelled += int(r.shardCancelled[s])
		wasted = tick.SatAdd(wasted, r.shardWasted[s])
		if end < r.shardEnd[s] {
			end = r.shardEnd[s]
		}
	}
	if completed != n {
		return nil, fmt.Errorf("sim: %d of %d tasks never executed", n-completed, n)
	}
	// Every completion and wake-up time is ≤ end, so a clamped addition
	// anywhere in the run shows here (or in the waste sum).
	if end == tick.Max || wasted == tick.Max {
		return nil, fmt.Errorf("sim: open run's end time or wasted time: %w", tick.ErrOverflow)
	}
	openCancellations.Add(int64(cancelled))
	r.res.CancelledReplicas = cancelled
	r.res.WastedTime = wasted.Seconds()
	r.res.End = end.Seconds()
	return &r.res, nil
}

// prepare validates the inputs and builds the SoA state: arrivals and
// durations in ticks, the shard decomposition with per-shard arrival
// streams, the uniform-shard detection, and the pending-position heap
// slabs.
func (r *FlatOpenRunner) prepare(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts *OpenOptions, sharded bool) error {
	n, m := in.N(), in.M
	if p.N() != n || p.M != m {
		return fmt.Errorf("sim: placement shape (%d tasks, %d machines) does not match instance (%d, %d)", p.N(), p.M, n, m)
	}
	if len(order) != n {
		return fmt.Errorf("sim: priority order has %d entries for %d tasks", len(order), n)
	}
	if len(arrive) != n {
		return fmt.Errorf("sim: %d arrival times for %d tasks", len(arrive), n)
	}
	if err := placement.CheckSets(p.Sets, m); err != nil {
		return err
	}
	if math.IsNaN(opts.CancelCost) || math.IsInf(opts.CancelCost, 0) || opts.CancelCost < 0 {
		return fmt.Errorf("sim: cancel cost %v (want finite, non-negative)", opts.CancelCost)
	}
	ct, err := tick.FromSeconds(opts.CancelCost)
	if err != nil {
		return fmt.Errorf("sim: cancel cost: %w", err)
	}
	r.cancelTick = ct
	if opts.Policy != CancelOnStart && opts.Policy != CancelOnCompletion {
		return fmt.Errorf("sim: unknown cancel policy %d", opts.Policy)
	}

	r.arrTick = grow(r.arrTick, n)
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

	// Permutation check, reusing done as scratch (cleared again below).
	r.done = growZero(r.done, n)
	for _, j := range order {
		if j < 0 || j >= n || r.done[j] {
			return fmt.Errorf("sim: priority order is not a permutation (task %d)", j)
		}
		r.done[j] = true
	}
	clear(r.done)
	r.order = order
	r.posOf = grow(r.posOf, n)
	for pos, j := range order {
		r.posOf[j] = int32(pos)
	}
	r.started = growZero(r.started, n)

	// Executed durations in ticks; under a Duration hook the executed
	// time depends on the machine and is converted at dispatch. The
	// running sum only feeds the wheel-shift heuristic; the minimum
	// gates the race-collapse fast path (see the file comment).
	var sumDur tick.Tick
	minDur := tick.Max
	if opts.Duration == nil {
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
			sumDur = tick.SatAdd(sumDur, t)
			if t < minDur {
				minDur = t
			}
		}
	}
	r.raceOK = opts.Policy == CancelOnCompletion && opts.Duration == nil &&
		minDur > 0 && r.cancelTick > 0
	if r.raceOK {
		r.raceEnd = grow(r.raceEnd, n) // written at race start before any read
	}

	r.seq = growZero(r.seq, m)
	r.activeM = growZero(r.activeM, m)
	r.runTask = grow(r.runTask, m)
	for i := range r.runTask {
		r.runTask[i] = -1
	}
	r.runStart = growZero(r.runStart, m)

	if sharded {
		r.partition(p)
	} else {
		r.partitionTrivial(n, m)
	}
	r.buildTaskOffsets(n)
	r.buildTaskLists(n)

	// Uniform detection: a shard where every replica set is the whole
	// shard shares one pending heap (see the file comment).
	r.uniform = grow(r.uniform, r.nShards)
	for s := range r.uniform {
		r.uniform[s] = true
	}
	anyGeneral := false
	for j := 0; j < n; j++ {
		if s := r.taskShard[j]; r.uniform[s] && !r.wide(s, p.Sets[j]) {
			r.uniform[s] = false
			anyGeneral = true
		}
	}
	r.sharedPos = grow(r.sharedPos, n)
	r.sharedLen = growZero(r.sharedLen, r.nShards)

	// Per-machine heap slab, only for machines of non-uniform shards
	// (slots of uniform-shard machines stay zero-capacity).
	r.qOff = growZero(r.qOff, m+1)
	if anyGeneral {
		for j := 0; j < n; j++ {
			if r.uniform[r.taskShard[j]] {
				continue
			}
			for _, i := range p.Sets[j] {
				r.qOff[i+1]++
			}
		}
		for i := 0; i < m; i++ {
			r.qOff[i+1] += r.qOff[i]
		}
		r.qPos = grow(r.qPos, int(r.qOff[m]))
	}
	r.qLen = growZero(r.qLen, m)

	r.shardDone = growZero(r.shardDone, r.nShards)
	r.shardCancelled = growZero(r.shardCancelled, r.nShards)
	r.shardWasted = growZero(r.shardWasted, r.nShards)
	r.shardEnd = growZero(r.shardEnd, r.nShards)
	r.shardErrs = growZero(r.shardErrs, r.nShards)

	// Wheel bucket width from the mean executed duration; under a
	// Duration hook (durations unknown until dispatch) the mean arrival
	// gap stands in. Either way the choice only tunes constants.
	var mean tick.Tick
	if n > 0 {
		if opts.Duration == nil {
			mean = sumDur / tick.Tick(n)
		} else {
			mean = r.arrTick[n-1] / tick.Tick(n)
		}
	}
	r.shift = wheelShift(mean)
	return nil
}

// replaySpan executes shard s to completion, writing only task-,
// machine- and shard-indexed state no other shard touches. This is the
// benchmarked open replay loop: everything statically reachable from
// here must not allocate (the hotalloc rule enforces it).
//
//perf:hotpath
func (r *FlatOpenRunner) replaySpan(p *placement.Placement, s int, sc *openScratch,
	opts *OpenOptions) {
	ms := r.shardMachines[r.shardOff[s]:r.shardOff[s+1]]
	tasks := r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]]
	sc.wheel.reset(r.shift)
	switch {
	case !r.uniform[s]:
		sc.stats.general++
		r.replayGeneral(p, s, ms, tasks, sc, opts)
	case r.raceOK:
		sc.stats.race++
		r.replayUniformRace(s, ms, tasks, sc)
	default:
		sc.stats.uniform++
		r.replayUniform(s, ms, tasks, sc, opts)
	}
}

// wake schedules a live event for machine i at time t, superseding any
// stale entry still riding the wheel.
func (r *FlatOpenRunner) wake(w *openWheel, i int32, t tick.Tick) {
	r.seq[i]++
	r.activeM[i] = true
	w.push(wEvent{t: t, m: i, seq: r.seq[i]})
}

// complete retires machine i's running replica at time now as the
// winner of task j: record response and assignment, and under
// CancelOnCompletion cancel the losing replicas still running
// elsewhere in the shard. Returns the updated (end, wasted, cancelled)
// accumulators.
func (r *FlatOpenRunner) complete(w *openWheel, ms []int32, i int32, j int32, now tick.Tick,
	onStart bool, end, wasted tick.Tick, cancelled int32) (tick.Tick, tick.Tick, int32) {
	r.runTask[i] = -1
	r.done[j] = true
	r.responses[j] = (now - r.arrTick[j]).Seconds()
	if end < now {
		end = now
	}
	r.sched.Assignments[j] = sched.Assignment{
		Task: int(j), Machine: int(i), Start: r.runStart[i].Seconds(), End: now.Seconds(),
	}
	if !onStart {
		for _, k := range ms {
			if k == i || r.runTask[k] != j {
				continue
			}
			// Cancel the losing replica: its machine time so far plus
			// the cancellation penalty is pure waste, and the machine
			// frees up only after paying the penalty.
			r.runTask[k] = -1
			cancelled++
			wasted = tick.SatAdd(wasted, now-r.runStart[k])
			wasted = tick.SatAdd(wasted, r.cancelTick)
			free := tick.SatAdd(now, r.cancelTick)
			if end < free {
				end = free
			}
			r.wake(w, k, free)
		}
	}
	return end, wasted, cancelled
}

// dispatch starts task j on machine i at time now, scheduling its
// completion. Returns false if the Duration hook produced a
// non-tick-representable value (the shard aborts; the error is staged
// for the merge).
func (r *FlatOpenRunner) dispatch(w *openWheel, s int, i, j int32, now tick.Tick, opts *OpenOptions) bool {
	r.started[j] = true
	r.runTask[i] = j
	r.runStart[i] = now
	var d tick.Tick
	if opts.Duration == nil {
		d = r.durTick[j]
	} else {
		var ok bool
		if d, ok = r.openHookTick(s, int(j), int(i), now, opts); !ok {
			return false
		}
	}
	r.wake(w, i, tick.SatAdd(now, d))
	return true
}

// openHookTick converts a Duration-hook value to ticks, recording a
// shard error keyed at the current event on failure — the open-mode
// twin of FlatRunner.hookTick.
func (r *FlatOpenRunner) openHookTick(s, j, machine int, now tick.Tick, opts *OpenOptions) (tick.Tick, bool) {
	sec := opts.Duration(j, machine)
	d, err := tick.FromSeconds(sec)
	if err != nil {
		//lint:ignore hotalloc duration-hook rejection path: the run is over, allocation is fine
		r.shardErrs[s] = spanError{key: mEvent{t: now, m: int32(machine)}, err: fmt.Errorf(
			"sim: duration hook for task %d on machine %d: %w", j, machine, err)}
		return 0, false
	}
	if d < 0 {
		//lint:ignore hotalloc duration-hook rejection path: the run is over, allocation is fine
		r.shardErrs[s] = spanError{key: mEvent{t: now, m: int32(machine)}, err: fmt.Errorf(
			"sim: duration hook returned negative %v for task %d on machine %d", sec, j, machine)}
		return 0, false
	}
	return d, true
}

// replayUniform is the shard event loop for a uniform shard: every
// replica set is the whole shard, so one shared pending-position heap
// (the slab region at shardTaskOff[s]) serves all machines. Arrivals
// push one entry instead of |set| entries, and dispatch follows the
// policy-split rule from the file comment: CancelOnStart pops
// (started ⇒ skipped-by-everyone), CancelOnCompletion peeks past done
// entries so racing machines all see the front task. Who pays for this
// path: open-replay's `ev-cos` and `g8-coc0` classes (every shard on
// sim.shards_uniform). Sent through replayGeneral instead, `ev-cos`
// falls from 3.23–3.34M to 0.14–0.15M tasks/s (each arrival pushed into
// 64 heaps) and `g8-coc0` from 1.40M to 0.91–0.94M (alternating traced
// runs, CHANGES.md PR 18).
func (r *FlatOpenRunner) replayUniform(s int, ms, tasks []int32, sc *openScratch, opts *OpenOptions) {
	w := &sc.wheel
	base := int(r.shardTaskOff[s])
	hn := 0 // shared heap length
	onStart := opts.Policy == CancelOnStart
	ti := 0
	var completedCount, cancelled int32
	var end, wasted tick.Tick
	for ti < len(tasks) || !w.empty() {
		// Interleave the two sorted streams; arrivals first at ties so
		// a machine going idle at t sees every task arriving at t.
		if ti < len(tasks) {
			j := tasks[ti]
			at := r.arrTick[j]
			if w.empty() || at <= w.peek().t {
				ti++
				posPush(r.sharedPos, base, hn, r.posOf[j])
				hn++
				for _, i := range ms {
					if !r.activeM[i] {
						r.wake(w, i, at)
					}
				}
				continue
			}
		}

		ev := w.pop()
		sc.stats.popped++
		i := ev.m
		if ev.seq != r.seq[i] {
			sc.stats.stale++
			continue // superseded by a cancellation re-schedule
		}
		now := ev.t

		// A live event on a busy machine is its replica completing.
		if j := r.runTask[i]; j >= 0 {
			completedCount++
			end, wasted, cancelled = r.complete(w, ms, i, j, now, onStart, end, wasted, cancelled)
		}

		// Dispatch: highest-priority arrived task still worth starting.
		j := int32(-1)
		if onStart {
			for hn > 0 {
				pos := posPop(r.sharedPos, base, hn)
				hn--
				cand := r.order[pos]
				// done ⇒ started, so one flag check covers the
				// done-or-started skip.
				if r.started[cand] {
					continue
				}
				j = int32(cand)
				break
			}
		} else {
			for hn > 0 {
				pos := r.sharedPos[base] // peek: racing replicas all see it
				cand := r.order[pos]
				if r.done[cand] {
					posPop(r.sharedPos, base, hn)
					hn--
					continue
				}
				j = int32(cand)
				break
			}
		}
		if j < 0 {
			r.activeM[i] = false // dormant until an eligible arrival wakes it
			continue
		}
		if !r.dispatch(w, s, i, j, now, opts) {
			return // duration-hook error staged; abandon the shard
		}
	}
	r.shardDone[s] = completedCount
	r.shardCancelled[s] = cancelled
	r.shardWasted[s] = wasted
	r.shardEnd[s] = end
}

// openScratch is one worker's private replay state: its event wheel,
// its race-collapse cohorts, and its tally for the run's counters.
// Each worker owns one, so shards running concurrently share nothing.
type openScratch struct {
	wheel openWheel
	parks parkSet
	stats spanStats
}

// parkSet is the race-collapse path's machine bookkeeping. A machine
// set is a bitmask over shard-local machine indices, ⌈machines/64⌉
// words wide. A park group is a cohort of machines that become free at
// the same tick: cancelled losers waiting out the cancellation cost, or
// dormant machines woken by an arrival. Group masks are disjoint and
// group ticks unique (add merges equal ticks), so at most one group per
// machine exists and the linear scans over ticks are trivially cheap
// next to the wheel traffic they replace. All four slices are regrown
// by append only, so they keep their capacity across shards and runs.
type parkSet struct {
	ticks   []tick.Tick // ticks[k] is group k's free tick
	masks   []uint64    // group k's machines at masks[k*nw : (k+1)*nw]
	dormant []uint64    // idle machines with nothing to run
	unit    []uint64    // the cohort being dispatched
}

// reset empties the set for a shard of m machines, all dormant, and
// returns the mask width in words.
func (ps *parkSet) reset(m int) int {
	nw := (m + 63) / 64
	ps.ticks = ps.ticks[:0]
	ps.masks = ps.masks[:0]
	ps.dormant = ps.dormant[:0]
	ps.unit = ps.unit[:0]
	for x := 0; x < nw; x++ {
		ps.dormant = append(ps.dormant, ^uint64(0))
		ps.unit = append(ps.unit, 0)
	}
	if rem := uint(m) % 64; rem != 0 {
		ps.dormant[nw-1] = uint64(1)<<rem - 1
	}
	return nw
}

// add merges mask into the group at tick t, opening a new group if
// none exists yet.
func (ps *parkSet) add(t tick.Tick, mask []uint64) {
	for k, gt := range ps.ticks {
		if gt == t {
			g := ps.masks[k*len(mask):]
			for x, w := range mask {
				g[x] |= w
			}
			return
		}
	}
	ps.ticks = append(ps.ticks, t)
	ps.masks = append(ps.masks, mask...)
}

// remove drops group k, moving the last group into its slot.
func (ps *parkSet) remove(k, nw int) {
	last := len(ps.ticks) - 1
	ps.ticks[k] = ps.ticks[last]
	copy(ps.masks[k*nw:(k+1)*nw], ps.masks[last*nw:])
	ps.ticks = ps.ticks[:last]
	ps.masks = ps.masks[:last*nw]
}

// wordBelow is the mask of a word's bits below position b, for any b:
// empty at b ≤ 0, full at b ≥ 64.
func wordBelow(b int) uint64 {
	switch {
	case b <= 0:
		return 0
	case b >= 64:
		return ^uint64(0)
	}
	return uint64(1)<<uint(b) - 1
}

// satAddScaled is acc + each×cnt with the saturation behaviour of cnt
// repeated tick.SatAdds of each (clamp at tick.Max and stay there), so
// cohort-batched waste accounting is bit-identical to per-loser
// accumulation.
func satAddScaled(acc, each tick.Tick, cnt int32) tick.Tick {
	if each <= 0 || cnt <= 0 {
		return acc
	}
	if tick.Tick(cnt) > (tick.Max-acc)/each {
		return tick.Max
	}
	return acc + each*tick.Tick(cnt)
}

// replayUniformRace is replayUniform specialized by the race-collapse
// argument in the file comment: the winner of every race is the
// lowest-indexed machine of its first dispatch cohort, so only winner
// completions ride the wheel — carrying local machine indices and no
// liveness seq, since a winner is never cancelled — and each later
// joiner is accounted as a guaranteed loser in O(1) and parked in a
// per-tick cohort bitmask until its cancellation cost is paid. Who pays
// for this path: open-replay's `ev-coc`, `ev-coc-m128` and `g8-coc`
// classes (every shard on sim.shards_race_collapse). Sent through
// replayUniform instead they fall from 2.9–3.1M tasks/s to 0.17M, 0.08M
// and 1.35M, and the workload's sim.events_per_task rises from 2.5 to
// 15.4 (alternating traced runs, CHANGES.md PR 18).
func (r *FlatOpenRunner) replayUniformRace(s int, ms, tasks []int32, sc *openScratch) {
	w, ps := &sc.wheel, &sc.parks
	base := int(r.shardTaskOff[s])
	hn := 0 // shared heap length
	ti := 0
	nw := ps.reset(len(ms))
	dormant, unit := ps.dormant, ps.unit
	anyDormant := true
	var completedCount, cancelled int32
	var popped int64
	var end, wasted tick.Tick
	for ti < len(tasks) || !w.empty() || len(ps.ticks) > 0 {
		// Earliest machine event: wheel top vs parked-cohort minimum.
		// Park ticks are unique, so the minimum is a single group.
		evT := tick.Max
		pi := -1
		for k, t := range ps.ticks {
			if pi < 0 || t < evT {
				evT = t
				pi = k
			}
		}
		wi := -1 // local index of the wheel-top winner if it ties evT
		if !w.empty() {
			if wt := w.peek(); wt.t < evT {
				evT = wt.t
				pi = -1
				wi = int(wt.m)
			} else if wt.t == evT {
				wi = int(wt.m)
			}
		}

		// Arrivals first at ties, as in every engine loop here.
		if ti < len(tasks) {
			j := tasks[ti]
			if at := r.arrTick[j]; at <= evT {
				ti++
				posPush(r.sharedPos, base, hn, r.posOf[j])
				hn++
				if anyDormant {
					ps.add(at, dormant)
					clear(dormant)
					anyDormant = false
				}
				continue
			}
		}
		now := evT

		// The batch unit: parked machines below a tying winner wake
		// before its completion (equal-tick events go in machine order);
		// everything else waits for a later iteration.
		cnt := int32(0) // machines in the unit
		if pi >= 0 {
			g := ps.masks[pi*nw : (pi+1)*nw]
			var rest uint64
			for x, word := range g {
				if wi >= 0 {
					word &= wordBelow(wi - 64*x)
				}
				unit[x] = word
				g[x] &^= word
				rest |= g[x]
				cnt += int32(bits.OnesCount64(word))
			}
			if cnt > 0 && rest == 0 {
				ps.remove(pi, nw)
			}
		}
		if cnt == 0 {
			// Winner completion; never stale, winners are never cancelled.
			ev := w.pop()
			popped++
			i := ms[ev.m]
			j := r.runTask[i]
			r.runTask[i] = -1
			r.done[j] = true
			r.responses[j] = (now - r.arrTick[j]).Seconds()
			if end < now {
				end = now
			}
			r.sched.Assignments[j] = sched.Assignment{
				Task: int(j), Machine: int(i), Start: r.runStart[i].Seconds(), End: now.Seconds(),
			}
			completedCount++
			clear(unit)
			unit[ev.m>>6] = uint64(1) << uint(ev.m&63)
			cnt = 1
		}

		// Dispatch the whole unit against the shared front. The front
		// cannot change inside a unit: arrivals were drained first, and
		// every completion at this tick is outside the unit by the
		// below-the-winner mask.
		j := int32(-1)
		for hn > 0 {
			pos := r.sharedPos[base]
			cand := r.order[pos]
			if r.done[cand] {
				posPop(r.sharedPos, base, hn)
				hn--
				continue
			}
			j = int32(cand)
			break
		}
		if j < 0 {
			for x, word := range unit {
				dormant[x] |= word
			}
			anyDormant = true
			continue
		}
		if !r.started[j] {
			// New race: the lowest-indexed machine of the cohort starts
			// first, wins, and is the only replica that ever completes.
			x := 0
			for unit[x] == 0 {
				x++
			}
			b := bits.TrailingZeros64(unit[x])
			l := 64*x + b
			i := ms[l]
			r.started[j] = true
			r.runTask[i] = j
			r.runStart[i] = now
			re := tick.SatAdd(now, r.durTick[j])
			r.raceEnd[j] = re
			w.push(wEvent{t: re, m: int32(l)})
			unit[x] &^= uint64(1) << uint(b)
			cnt--
		}
		if cnt > 0 {
			// Guaranteed losers: cancelled when the race ends, so their
			// waste and wake-up are known now (see the file comment).
			re := r.raceEnd[j]
			cancelled += cnt
			wasted = satAddScaled(wasted, tick.SatAdd(re-now, r.cancelTick), cnt)
			free := tick.SatAdd(re, r.cancelTick)
			if end < free {
				end = free
			}
			ps.add(free, unit)
		}
	}
	r.shardDone[s] = completedCount
	r.shardCancelled[s] = cancelled
	r.shardWasted[s] = wasted
	r.shardEnd[s] = end
	sc.stats.popped += popped
}

// replayGeneral is the shard event loop for mixed replica sets: each
// machine owns a pending-position min-heap in the qPos CSR slab, and
// an arrival pushes its position into every machine of its set —
// the eligibility semantics of per-machine sorted queues, with
// O(log n) insertion instead of O(n) memmove.
func (r *FlatOpenRunner) replayGeneral(p *placement.Placement, s int, ms, tasks []int32,
	sc *openScratch, opts *OpenOptions) {
	w := &sc.wheel
	onStart := opts.Policy == CancelOnStart
	ti := 0
	var completedCount, cancelled int32
	var end, wasted tick.Tick
	for ti < len(tasks) || !w.empty() {
		if ti < len(tasks) {
			j := tasks[ti]
			at := r.arrTick[j]
			if w.empty() || at <= w.peek().t {
				ti++
				pos := r.posOf[j]
				for _, i := range p.Sets[j] {
					posPush(r.qPos, int(r.qOff[i]), int(r.qLen[i]), pos)
					r.qLen[i]++
					if !r.activeM[i] {
						r.wake(w, int32(i), at)
					}
				}
				continue
			}
		}

		ev := w.pop()
		sc.stats.popped++
		i := ev.m
		if ev.seq != r.seq[i] {
			sc.stats.stale++
			continue
		}
		now := ev.t

		if j := r.runTask[i]; j >= 0 {
			completedCount++
			end, wasted, cancelled = r.complete(w, ms, i, j, now, onStart, end, wasted, cancelled)
		}

		// Dispatch. Every examined entry is popped: skipped entries are
		// dead permanently (done, or started under CancelOnStart), and
		// the dispatched entry is consumed — under CancelOnCompletion
		// other machines race via their own heap entries.
		j := int32(-1)
		for r.qLen[i] > 0 {
			pos := posPop(r.qPos, int(r.qOff[i]), int(r.qLen[i]))
			r.qLen[i]--
			cand := r.order[pos]
			if r.done[cand] || (onStart && r.started[cand]) {
				continue
			}
			j = int32(cand)
			break
		}
		if j < 0 {
			r.activeM[i] = false
			continue
		}
		if !r.dispatch(w, s, i, j, now, opts) {
			return
		}
	}
	r.shardDone[s] = completedCount
	r.shardCancelled[s] = cancelled
	r.shardWasted[s] = wasted
	r.shardEnd[s] = end
}

func (r *FlatOpenRunner) ensureWorkers(workers int) {
	if cap(r.workers) < workers {
		next := make([]openScratch, workers)
		copy(next, r.workers[:cap(r.workers)])
		r.workers = next
	} else {
		r.workers = r.workers[:workers]
	}
	for w := range r.workers {
		r.workers[w].stats = spanStats{}
	}
}

// posPush inserts pos into the n-element min-heap living at
// slab[base : base+n]; the caller owns the length bookkeeping. The
// int32 position keys are unique within a heap (one entry per task per
// queue), so pop order is deterministic.
func posPush(slab []int32, base, n int, pos int32) {
	slab[base+n] = pos
	i := n
	for i > 0 {
		parent := (i - 1) / 2
		if slab[base+parent] <= slab[base+i] {
			break
		}
		slab[base+i], slab[base+parent] = slab[base+parent], slab[base+i]
		i = parent
	}
}

// posPop removes and returns the minimum of the n-element heap at
// slab[base : base+n]; the caller decrements its length.
func posPop(slab []int32, base, n int) int32 {
	top := slab[base]
	n--
	slab[base] = slab[base+n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		next := left
		if right := left + 1; right < n && slab[base+right] < slab[base+left] {
			next = right
		}
		if slab[base+i] <= slab[base+next] {
			break
		}
		slab[base+i], slab[base+next] = slab[base+next], slab[base+i]
		i = next
	}
	return top
}
