package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/loadheap"
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
// tick.Tick fixed-point time, the same shard decomposition, the same
// event structure. oracleRunOpen (oracle_test.go) states the same
// semantics naively; flat_open_test.go pins the equivalence.
//
// # Event model
//
// Two deterministic streams drive a shard's loop: the arrival times
// (indexed by task ID, non-decreasing) and the machine events in
// (time, machine index) order. A machine has at most one pending event
// at any time: its running replica's completion, or the tick it wakes
// to look for work — an arrival made it eligible for a task, or a
// cancelled replica's penalty is paid. So the event set is one key per
// machine, held the way the batch engine holds it: a loadheap.Tree over
// ticks with one leaf per machine of the shard, in machine order.
// Scheduling or moving a machine's event is a Set of its leaf, a
// dormant machine's leaf holds tick.Max, and the next event is the
// root, ties to the lower index. At equal times arrivals go first, so
// a machine going idle at t sees every task that arrived at t.
//
// tick.Max means dormant, so no event may land on it: a completion or
// a cancel wake-up that saturates tick.SatAdd fails the shard with
// errSaturated, as in the batch engine, instead of retiring a machine
// that still holds work.
//
// Why a tree and not a queue of events: a cancellation moves a
// machine's pending event, from its replica's completion to the tick
// the penalty is paid. A heap or calendar queue can only leave the old
// entry behind as stale: the tick wheel this replaced did, and on
// open-replay a quarter of its pops were stale. A leaf per machine
// moves the event in place in log2 matches on a fixed path, leaves
// nothing stale behind and has no bucket width to tune.
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
// # The pending sets
//
// An idle machine takes the highest-priority arrived task it holds a
// replica of and may still start. prepare numbers each shard's tasks by
// their rank in the priority order, and a shard's pending tasks are kept
// as rankSets, 64-ary bitmaps over those ranks: push sets a bit, the
// minimum is one trailing-zeros count per level. A wide task (replica
// set == the shard; CheckSets' strictly ascending sets make that
// len(set) == shard size) enters one shared set that every machine of
// the shard reads. A narrow one enters a set per machine of its set,
// over that machine's list of narrow tasks in priority order, and an
// idle machine takes the earlier of the two minima. A task leaves every
// set it is in once no machine may take it any more:
//
//   - CancelOnStart: when it starts, since every other machine would
//     skip it from then on;
//   - CancelOnCompletion: when it completes, since until then racing
//     machines must all see it. A machine consults the sets only while
//     idle, so never to race itself.
//
// So no set holds a dead entry, and an arrival sets one bit per set it
// enters. The sets share one slab, zeroed in prepare and left zero by
// every completed run.
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
// race winners hold a leaf of the tree (~1 event per task), while
// losers are accounted in O(1) per cohort and parked as per-tick
// machine bitmasks that rejoin the next race as a block. That turns
// the replicate-everywhere configuration from Θ(n·m) events into Θ(n).
// Cohort masks are ⌈machines/64⌉ words from the worker's parkSet, so
// the shard's width is no gate. The path requires a uniform shard,
// CancelOnCompletion, no Duration hook, and strictly positive
// durations (a zero-duration race could finish inside its own dispatch
// tick); anything else takes replayGeneral, which the differential
// suites hold byte-identical to this one on the overlap.
//
// Zero cancel cost needs no gate of its own. The one order the batch
// unit must get right is that of a race's end tick at zero cost, where
// the winner completes and its losers free up in the same tick: the
// winner's completion is what cancels them, so it goes first, yet the
// unit takes parked machines below a tying winner before it. That would
// be wrong for a loser below its own winner, and on a uniform shard at
// zero cost there is none. The first arrival wakes every machine of the
// shard at once, and they all join the race the front task starts. They
// all free at its end tick, the winner by completing and every loser at
// end + 0, so the winner dispatches first (the unit rule: nothing
// parked lies below it) and the rest then join that next race or go
// dormant with it. The shard moves as one cohort — every machine in the
// same race, or every machine dormant — and a cohort's race is started
// by its lowest machine, the shard's lowest, which every loser is
// above. At a positive cost no loser frees in its own winner's
// completion tick, and machine order is the event order between
// machines of different races.
var (
	flatOpenRuns   = obs.GetCounter("sim.flat_open_runs")
	flatOpenShards = obs.GetCounter("sim.flat_open_shards")
)

// RunFlatOpenSharded executes an open-system run on the flat engine
// through the shard decomposition on the given number of workers and
// returns caller-owned state; see FlatOpenRunner.RunSharded. Hot loops
// should reuse a FlatOpenRunner.
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
	started []bool

	// SoA machine state.
	runTask  []int32     // running task, -1 if idle
	runStart []tick.Tick // when the current replica started

	// Shard ranks: rank[j] is task j's place in its shard's priority
	// order, and rankTask lists each shard's tasks by rank in a slab
	// partitioned by shardTaskOff.
	rank     []int32
	rankTask []int32

	// Narrow tasks (replica set smaller than the shard): task j's
	// entries, one per machine of its set, are entries[narrowOff[j]:
	// narrowOff[j+1]], empty for a wide task. Machine slot sl (its index
	// in shardMachines) lists its narrow tasks in priority order at
	// qTask[qOff[sl]:qOff[sl+1]]; slot maps a machine to its slot.
	narrowOff []int32
	entries   []narrowEntry
	qOff      []int32
	qTask     []int32
	slot      []int32

	// The pending sets, in one zeroed slab: each shard's shared set over
	// its ranks holds its arrived wide tasks, and each slot's set over
	// its narrow list its arrived narrow tasks (see the file comment).
	pend   []uint64
	shared []rankSet
	narrow []rankSet

	// Per-shard outcome slots, written by exactly one worker each.
	shardOut  []openTally
	shardErrs []spanError

	// Per-worker event tree, race-collapse cohorts and tallies.
	workers []openScratch

	// raceEnd[j] is the completion tick of task j's race, valid once
	// started[j] under the race-collapse fast path (raceOK).
	raceEnd []tick.Tick
	raceOK  bool

	cancelTick tick.Tick
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
	r.started = r.started[:0]
	r.runTask = r.runTask[:0]
	r.runStart = r.runStart[:0]
	r.rank = r.rank[:0]
	r.rankTask = r.rankTask[:0]
	r.narrowOff = r.narrowOff[:0]
	r.entries = r.entries[:0]
	r.qOff = r.qOff[:0]
	r.qTask = r.qTask[:0]
	r.slot = r.slot[:0]
	r.pend = r.pend[:0]
	r.shared = r.shared[:0]
	r.narrow = r.narrow[:0]
	r.shardOut = r.shardOut[:0]
	r.shardErrs = r.shardErrs[:0]
	r.workers = r.workers[:0] // backing entries (and their buffers) are reused
	r.raceEnd = r.raceEnd[:0]
	r.raceOK = false
	r.cancelTick = 0
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
			r.replaySpan(s, sc, opts)
		}
	} else {
		// Striped shard assignment, exactly as FlatRunner: ownership is
		// deterministic but output-irrelevant.
		par.Map(workers, workers, func(w int) struct{} {
			sc := &r.workers[w]
			for s := w; s < r.nShards; s += workers {
				r.replaySpan(s, sc, opts)
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
	for _, o := range r.shardOut {
		completed += int(o.done)
		cancelled += int(o.cancelled)
		wasted = tick.SatAdd(wasted, o.wasted)
		end = max(end, o.end)
	}
	if completed != n {
		return nil, fmt.Errorf("sim: %d of %d tasks never executed", n-completed, n)
	}
	// A saturated event time failed its shard above; a waste sum can
	// still clamp with every event in range.
	if wasted == tick.Max {
		return nil, fmt.Errorf("sim: open run's wasted time: %w", tick.ErrOverflow)
	}
	openCancellations.Add(int64(cancelled))
	r.res.CancelledReplicas = cancelled
	r.res.WastedTime = wasted.Seconds()
	r.res.End = end.Seconds()
	return &r.res, nil
}

// prepare validates the inputs and builds the SoA state: arrivals and
// durations in ticks, the shard decomposition with per-shard arrival
// streams, the shard ranks, the narrow lists and the pending sets.
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

	// Permutation check, reusing started as scratch (cleared again below).
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
	// minimum gates the race-collapse fast path (see the file comment).
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
			minDur = min(minDur, t)
		}
	}
	r.raceOK = opts.Policy == CancelOnCompletion && opts.Duration == nil && minDur > 0
	if r.raceOK {
		r.raceEnd = grow(r.raceEnd, n) // written at race start before any read
	}

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

	// Shard ranks: one pass over the priority order numbers each shard's
	// tasks in the order its dispatcher takes them, with the union-find
	// scratch, long done with, as the fill cursor.
	r.rank = grow(r.rank, n)
	r.rankTask = grow(r.rankTask, n)
	cur := growZero(r.parent, max(r.nShards, m))
	r.parent = cur[:0]
	for _, j := range order {
		s := r.taskShard[j]
		k := cur[s]
		cur[s]++
		r.rank[j] = k
		r.rankTask[r.shardTaskOff[s]+k] = int32(j)
	}

	// Narrow lists: each machine of a narrow set lists the task in
	// priority order, which fixes the task's index in that list once for
	// the whole run.
	r.slot = grow(r.slot, m)
	for sl, i := range r.shardMachines {
		r.slot[i] = int32(sl)
	}
	r.narrowOff = growZero(r.narrowOff, n+1)
	r.qOff = growZero(r.qOff, m+1)
	for j, set := range p.Sets {
		s := r.taskShard[j]
		r.narrowOff[j+1] = r.narrowOff[j]
		if r.wide(s, set) {
			continue
		}
		r.narrowOff[j+1] += int32(len(set))
		for _, i := range set {
			r.qOff[r.slot[i]+1]++
		}
	}
	for sl := 0; sl < m; sl++ {
		r.qOff[sl+1] += r.qOff[sl]
	}
	r.entries = grow(r.entries, int(r.narrowOff[n]))
	r.qTask = grow(r.qTask, int(r.qOff[m]))
	clear(cur)
	for _, j := range order {
		es := r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
		for x := range es {
			sl := r.slot[p.Sets[j][x]]
			es[x] = narrowEntry{slot: sl, idx: cur[sl]}
			r.qTask[r.qOff[sl]+cur[sl]] = int32(j)
			cur[sl]++
		}
	}

	// The pending sets: a shard's shared set over its ranks, a slot's
	// over its narrow list, all empty in one zeroed slab.
	r.shared = grow(r.shared, r.nShards)
	r.narrow = grow(r.narrow, m)
	words := int32(0)
	for s := range r.shared {
		words = r.shared[s].layout(words, int(r.shardTaskOff[s+1]-r.shardTaskOff[s]))
	}
	for sl := range r.narrow {
		words = r.narrow[sl].layout(words, int(r.qOff[sl+1]-r.qOff[sl]))
	}
	r.pend = growZero(r.pend, int(words))

	r.shardOut = growZero(r.shardOut, r.nShards)
	r.shardErrs = growZero(r.shardErrs, r.nShards)
	return nil
}

// replaySpan executes shard s to completion, writing only task-,
// machine- and shard-indexed state no other shard touches. This is the
// benchmarked open replay loop: everything statically reachable from
// here must not allocate (the hotalloc rule enforces it).
//
//perf:hotpath
func (r *FlatOpenRunner) replaySpan(s int, sc *openScratch, opts *OpenOptions) {
	ms := r.shardMachines[r.shardOff[s]:r.shardOff[s+1]]
	tasks := r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]]
	sc.tree.ResetRetired(len(ms)) // every machine dormant until a task arrives
	// A shard is uniform (every replica set is the whole shard) when its
	// machines list no narrow task.
	uniform := r.qOff[r.shardOff[s+1]] == r.qOff[r.shardOff[s]]
	switch {
	case uniform && r.raceOK:
		sc.stats.race++
		r.replayUniformRace(s, ms, tasks, sc)
		return
	case uniform:
		sc.stats.uniform++
	default:
		sc.stats.general++
	}
	r.replayGeneral(s, ms, tasks, sc, opts)
}

// openTally is one shard's outcome: completed tasks, cancelled
// replicas, wasted ticks, and the last completion or wake-up tick.
type openTally struct {
	done, cancelled int32
	wasted, end     tick.Tick
}

// complete retires machine i's running replica at time now as the
// winner of task j: record response and assignment, and under
// CancelOnCompletion cancel the losing replicas still running
// elsewhere in the shard, moving each loser's event to the tick its
// cancellation penalty is paid. Returns false, the shard error staged,
// when that tick saturates.
func (r *FlatOpenRunner) complete(t *loadheap.Tree[tick.Tick], s int, ms []int32, i, j int32,
	now tick.Tick, onStart bool, out *openTally) bool {
	r.runTask[i] = -1
	out.done++
	r.responses[j] = (now - r.arrTick[j]).Seconds()
	out.end = max(out.end, now)
	r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: r.runStart[i], End: now}
	if onStart {
		return true // j left the pending sets when it started
	}
	r.drop(s, j)
	free := tick.SatAdd(now, r.cancelTick)
	for k, mk := range ms {
		if r.runTask[mk] != j {
			continue
		}
		if free == tick.Max {
			r.shardErrs[s] = spanError{key: mEvent{t: now, m: i}, err: errSaturated(j, i)}
			return false
		}
		// Cancel the losing replica: its machine time so far plus the
		// cancellation penalty is pure waste, and the machine frees up
		// only after paying the penalty.
		r.runTask[mk] = -1
		out.cancelled++
		out.wasted = tick.SatAdd(out.wasted, now-r.runStart[mk])
		out.wasted = tick.SatAdd(out.wasted, r.cancelTick)
		out.end = max(out.end, free)
		t.Set(k, free)
	}
	return true
}

// dispatch starts task j on machine i, leaf k, at time now, and sets
// the leaf to its completion tick. Returns false, the shard error
// staged, if the Duration hook produced a non-tick-representable value
// or the completion saturates.
func (r *FlatOpenRunner) dispatch(t *loadheap.Tree[tick.Tick], s, k int, i, j int32, now tick.Tick,
	opts *OpenOptions) bool {
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
	end := tick.SatAdd(now, d)
	if end == tick.Max {
		r.shardErrs[s] = spanError{key: mEvent{t: now, m: i}, err: errSaturated(j, i)}
		return false
	}
	t.Set(k, end)
	return true
}

// openHookTick converts a Duration-hook value to ticks, recording a
// shard error keyed at the current event on failure. A negative or
// non-finite duration has no tick representation, so the hook's
// contract is enforced here rather than trusted.
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

// openScratch is one worker's private replay state: its event tree,
// its race-collapse cohorts, and its tally for the run's counters.
// Each worker owns one, so shards running concurrently share nothing.
type openScratch struct {
	tree  loadheap.Tree[tick.Tick] // the shard's machines by next event tick
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
// next to the per-loser events they replace. All four slices are regrown
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

// replayUniformRace is the general loop on a uniform shard, specialized
// by the race-collapse argument in the file comment: the winner of
// every race is the lowest-indexed machine of its first dispatch cohort,
// so only winners hold a leaf of the tree — a winner is never
// cancelled, so its leaf never moves before it completes — and each
// later joiner is accounted as a guaranteed loser in O(1) and parked in
// a per-tick cohort bitmask until its cancellation cost is paid. Who
// pays for this path: open-replay's `ev-coc`, `ev-coc-m128`, `g8-coc`
// and `g8-coc0` classes (every shard on sim.shards_race_collapse). Sent
// through replayGeneral instead they fall from 5.08M, 4.85M, 4.21M and
// 4.23M tasks/s to 0.23M, 0.10M, 2.04M and 2.07M, and the workload's
// sim.events_per_task rises from 1.12 to 7.46 (traced seed-7 runs on a
// 2-core x86-64 host; CHANGES.md, the pending-set entry).
func (r *FlatOpenRunner) replayUniformRace(s int, ms, tasks []int32, sc *openScratch) {
	t, ps := &sc.tree, &sc.parks
	front := &r.shared[s]
	base := r.shardTaskOff[s]
	ti := 0
	nw := ps.reset(len(ms))
	dormant, unit := ps.dormant, ps.unit
	anyDormant := true
	var out openTally
	var popped int64
	for ti < len(tasks) || t.MinLoad() != tick.Max || len(ps.ticks) > 0 {
		// Earliest machine event: the first winner's completion vs the
		// parked-cohort minimum. Park ticks are unique, so the minimum is
		// a single group.
		evT := tick.Max
		pi := -1
		for k, pt := range ps.ticks {
			if pi < 0 || pt < evT {
				evT = pt
				pi = k
			}
		}
		wi := -1 // leaf of the first winner if it ties evT
		if wt := t.MinLoad(); wt < evT {
			evT = wt
			pi = -1
			wi = t.MinID()
		} else if wt == evT {
			wi = t.MinID()
		}

		// Arrivals first at ties, as in every engine loop here.
		if ti < len(tasks) {
			j := tasks[ti]
			if at := r.arrTick[j]; at <= evT {
				ti++
				front.push(r.pend, r.rank[j])
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
		retire := -1 // a completed winner's leaf, unless it starts the next race
		if cnt == 0 {
			popped++
			retire = wi
			i := ms[wi]
			j := r.runTask[i]
			r.runTask[i] = -1
			front.remove(r.pend, r.rank[j])
			r.responses[j] = (now - r.arrTick[j]).Seconds()
			out.end = max(out.end, now)
			r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: r.runStart[i], End: now}
			out.done++
			clear(unit)
			unit[wi>>6] = uint64(1) << uint(wi&63)
			cnt = 1
		}

		// Dispatch the whole unit against the shared front. The front
		// cannot change inside a unit: arrivals were drained first, and
		// every completion at this tick is outside the unit by the
		// below-the-winner mask.
		j := int32(-1)
		if x := front.min(r.pend); x >= 0 {
			j = r.rankTask[base+x]
		}
		if j >= 0 && !r.started[j] {
			// New race: the lowest-indexed machine of the cohort starts
			// first, wins, and is the only replica that ever completes.
			l := lowest(unit)
			i := ms[l]
			re := tick.SatAdd(now, r.durTick[j])
			if re == tick.Max {
				r.shardErrs[s] = spanError{key: mEvent{t: now, m: i}, err: errSaturated(j, i)}
				return
			}
			r.started[j] = true
			r.runTask[i] = j
			r.runStart[i] = now
			r.raceEnd[j] = re
			t.Set(l, re)
			if l == retire {
				retire = -1
			}
			unit[l>>6] &^= uint64(1) << uint(l&63)
			cnt--
		}
		if retire >= 0 {
			t.Set(retire, tick.Max)
		}
		if j < 0 {
			for x, word := range unit {
				dormant[x] |= word
			}
			anyDormant = true
			continue
		}
		if cnt > 0 {
			// Guaranteed losers: cancelled when the race ends, so their
			// waste and wake-up are known now (see the file comment).
			re := r.raceEnd[j]
			free := tick.SatAdd(re, r.cancelTick)
			if free == tick.Max {
				// Keyed and worded as the other loops see it, at the winner's
				// completion.
				i := r.winner(ms, j)
				r.shardErrs[s] = spanError{key: mEvent{t: re, m: i}, err: errSaturated(j, i)}
				return
			}
			out.cancelled += cnt
			out.wasted = satAddScaled(out.wasted, tick.SatAdd(re-now, r.cancelTick), cnt)
			out.end = max(out.end, free)
			ps.add(free, unit)
		}
	}
	r.shardOut[s] = out
	sc.stats.popped += popped
}

// lowest is the lowest machine in a non-empty mask.
func lowest(mask []uint64) int {
	x := 0
	for mask[x] == 0 {
		x++
	}
	return 64*x + bits.TrailingZeros64(mask[x])
}

// winner is the machine running task j's winning replica, the only
// one running it on the race-collapse path.
func (r *FlatOpenRunner) winner(ms []int32, j int32) int32 {
	for _, i := range ms {
		if r.runTask[i] == j {
			return i
		}
	}
	return -1
}

// replayGeneral is the shard event loop off race collapse, over the
// pending sets of the file comment. An arrival enters them once: a wide
// task the shard's shared set, waking every dormant machine, a narrow
// one the set of each machine it has a replica on, waking that machine.
// Every mixed shard takes it — ABO_Δ's, SABO_Δ's and ReplicateTail's
// pinned tasks beside replicated ones — and so does a uniform one off
// race collapse, open-replay's `ev-cos` class (sim.shards_uniform),
// which the shared set alone serves: with its tasks filed per machine
// instead it falls from 5.26M to 0.65M tasks/s (the same traced runs).
func (r *FlatOpenRunner) replayGeneral(s int, ms, tasks []int32, sc *openScratch, opts *OpenOptions) {
	t := &sc.tree
	front := &r.shared[s]
	base, so := r.shardTaskOff[s], r.shardOff[s]
	onStart := opts.Policy == CancelOnStart
	ti := 0
	dormant := len(ms) // machines whose leaf is tick.Max
	var out openTally
	var popped int64
	for {
		// Interleave the two sorted streams; arrivals first at ties so
		// a machine going idle at t sees every task arriving at t.
		now := t.MinLoad()
		if ti < len(tasks) {
			j := tasks[ti]
			if at := r.arrTick[j]; at <= now {
				ti++
				es := r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
				if len(es) == 0 {
					front.push(r.pend, r.rank[j])
					if dormant > 0 {
						for k := range ms {
							if t.Key(k) == tick.Max {
								t.Set(k, at) // a dormant machine wakes to look
							}
						}
						dormant = 0
					}
				}
				for _, e := range es {
					r.narrow[e.slot].push(r.pend, e.idx)
					if k := int(e.slot - so); t.Key(k) == tick.Max {
						t.Set(k, at)
						dormant--
					}
				}
				continue
			}
		}
		if now == tick.Max {
			break // every task arrived, every machine dormant
		}
		popped++
		k := t.MinID()
		i := ms[k]

		// An event on a busy machine is its replica completing.
		if j := r.runTask[i]; j >= 0 && !r.complete(t, s, ms, i, j, now, onStart, &out) {
			return
		}

		// Dispatch: the earlier of the shard's first wide task and the
		// machine's first narrow one.
		j := int32(-1)
		if x := front.min(r.pend); x >= 0 {
			j = r.rankTask[base+x]
		}
		sl := so + int32(k)
		if x := r.narrow[sl].min(r.pend); x >= 0 {
			if nj := r.qTask[r.qOff[sl]+x]; j < 0 || r.rank[nj] < r.rank[j] {
				j = nj
			}
		}
		if j < 0 {
			t.Set(k, tick.Max) // dormant until an eligible arrival wakes it
			dormant++
			continue
		}
		if onStart {
			r.drop(s, j)
		}
		if !r.dispatch(t, s, k, i, j, now, opts) {
			return // error staged; abandon the shard
		}
	}
	r.shardOut[s] = out
	sc.stats.popped += popped
}

// narrowEntry is a narrow task's place on one machine: the machine's
// slot and the task's index in the slot's narrow list.
type narrowEntry struct{ slot, idx int32 }

// drop takes task j of shard s out of the pending sets: the shared set
// if j is wide, else the set of every machine it has a replica on.
func (r *FlatOpenRunner) drop(s int, j int32) {
	es := r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
	if len(es) == 0 {
		r.shared[s].remove(r.pend, r.rank[j])
	}
	for _, e := range es {
		r.narrow[e.slot].remove(r.pend, e.idx)
	}
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
