package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

var (
	simFlatRuns   = obs.GetCounter("sim.flat_runs")
	simFlatShards = obs.GetCounter("sim.flat_shards")
)

// FlatOptions configures a batch run: the policies a caller may attach
// to the one list-scheduling event loop.
type FlatOptions struct {
	// Trace records start/finish events when true.
	Trace bool
	// Failures injects fail-stop machine crashes: a task running across
	// a crash is lost and re-offered, ahead of the queues, to the other
	// machines holding a replica; the schedule records each task's final
	// execution, and a crash that strands a task fails the run with
	// ErrUnsurvivable. Incompatible with Trace.
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

// spanError is a shard-local error together with the (time, machine)
// event key it was raised at, so the merge can return exactly the
// error a sequential run over the global event order would have hit
// first: the minimum key across shards.
type spanError struct {
	key mEvent
	err error
}

// FlatRunner is the data-oriented simulator core: the hot state of a
// run lives in flat structure-of-arrays slices indexed by task and
// machine IDs (no pointers to chase), simulated time is int64
// fixed-point (tick.Tick), and execution is decomposed into
// independent shards — the connected components of the "shares a
// replica set" relation over machines. Under the paper's group:k
// placement each replica group is one shard; under no-replication
// every machine is its own shard and the event tree disappears
// entirely; under replicate-everywhere there is a single shard and the
// engine degenerates to one global event loop.
//
// Layout:
//
//	tasks    durTick[j]            executed ticks
//	         priorityOf[j]         position in the priority order
//	         started[j]            queued task handed out yet?
//	         taskShard[j]          owning shard
//	shards   shardMachines[shardOff[s]:shardOff[s+1]]  member machines
//	         shardTaskOff[s]       prefix sums of per-shard task counts
//	         wideTasks[shardTaskOff[s]:][:wideLen[s]]  the shard list:
//	                               tasks whose replica set is the whole
//	                               shard, in priority order, each once
//	         wideHead[s]           the list's cursor
//	         sched.Dispatched[shardTaskOff[s]:]  the shard's tasks in the
//	                               order it started them, for sched.Verify
//	machines qTasks[qOff[i]:qOff[i+1]]  per-machine queue: the other
//	                               tasks eligible on i, in priority
//	                               order, one copy per replica (CSR)
//	         head[i]               queue scan position
//	stealing order, stealHead      FetchPenalty only: the caller's
//	                               priority order and a cursor over it
//
// A machine's eligible tasks are its shard's list plus its own queue,
// and pick hands it the earlier-in-order of the two heads. List tasks
// start in list order — any machine of the shard that takes one takes
// the first left — so a cursor replaces the started-skip, and build
// plus run cost O(n + Σ|M_j| over non-wide tasks) + O(n log m), where
// one queue copy per replica cost Σ|M_j| = n·m under full replication.
//
// Because tasks never cross shards, every Assignment, trace and
// dispatch-record region, and started flag a shard writes is disjoint
// from every other shard's, so shards run on par workers with plain
// (non-atomic) writes and the merged output is byte-identical to the
// sequential order — int64 time makes per-machine completion times
// exact sums, not rounding-order-dependent floats. The differential
// suite in flat_test.go pins that equivalence at every worker count.
//
// The zero value is ready to use. A FlatRunner owns the Result it
// returns (valid until the next call; RunFlat and RunFlatSharded return
// caller-owned state), performs zero steady-state allocations across
// same-shaped runs, and is not safe for concurrent use.
type FlatRunner struct {
	// SoA task state.
	durTick    []tick.Tick
	started    []bool
	priorityOf []int32

	// Per-shard lists and CSR per-machine queues (see Layout).
	wideTasks, wideLen, wideHead []int32
	qTasks, qOff, head           []int32

	// FetchPenalty runs only (order nil otherwise): a machine with no
	// local work left scans order from stealHead for an unstarted task.
	order     []int
	stealHead int

	// Shard decomposition (shardOf, shardMachines, taskShard, …),
	// shared with FlatOpenRunner.
	shardSet

	// Per-shard outcome slots, written by exactly one worker each.
	shardStarted []int32
	shardErrs    []spanError

	// Failure-mode state, sized only when Failures are present.
	dead      []bool
	dormant   []bool
	dormantAt []tick.Tick
	runTask   []int32
	runEnd    []tick.Tick
	completed []bool
	crashes   []mEvent

	// Per-worker event-loop scratch.
	scratch []flatScratch

	// opts is the caller's FlatOptions for the current run, copied
	// here so the engine passes a pointer to already-heap-resident
	// state around instead of letting a parameter escape per call.
	// run clears it on exit so a caller's Failures slice is not
	// retained past the run that used it.
	opts FlatOptions

	sched sched.Schedule
	res   Result
}

// Reset re-initializes every field of the FlatRunner for an n-task,
// m-machine run, retaining capacity. Slices are truncated here and
// regrown to their exact sizes in prepare; Run calls it internally.
func (r *FlatRunner) Reset(n, m int) {
	r.durTick = r.durTick[:0]
	r.started = r.started[:0]
	r.priorityOf = r.priorityOf[:0]
	r.wideTasks = r.wideTasks[:0]
	r.wideLen = r.wideLen[:0]
	r.wideHead = r.wideHead[:0]
	r.qTasks = r.qTasks[:0]
	r.qOff = r.qOff[:0]
	r.head = r.head[:0]
	r.order = nil
	r.stealHead = 0
	r.shardSet.reset()
	r.shardStarted = r.shardStarted[:0]
	r.shardErrs = r.shardErrs[:0]
	r.dead = r.dead[:0]
	r.dormant = r.dormant[:0]
	r.dormantAt = r.dormantAt[:0]
	r.runTask = r.runTask[:0]
	r.runEnd = r.runEnd[:0]
	r.completed = r.completed[:0]
	r.crashes = r.crashes[:0]
	r.scratch = r.scratch[:0] // backing entries (and their buffers) are reused
	r.opts = FlatOptions{}
	r.sched.Reset(n, m)
	r.res = Result{Schedule: &r.sched, Trace: r.res.Trace[:0]}
}

// RunFlat executes the instance on the flat engine sequentially (one
// global event loop, no shard decomposition). The returned Result is
// freshly allocated and caller-owned.
func RunFlat(in *task.Instance, p *placement.Placement, order []int, opts FlatOptions) (*Result, error) {
	var r FlatRunner
	return r.Run(in, p, order, opts)
}

// RunFlatSharded is RunFlat through the shard decomposition on the
// given number of workers; see FlatRunner.RunSharded.
func RunFlatSharded(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions, workers int) (*Result, error) {
	var r FlatRunner
	return r.RunSharded(in, p, order, opts, workers)
}

// Run executes list scheduling over the placement and priority order
// on the flat engine, as a single event loop over all machines — the
// sequential reference the sharded path is differentially tested
// against. Results are byte-identical to RunSharded at every worker
// count.
func (r *FlatRunner) Run(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions) (*Result, error) {
	return r.run(in, p, order, opts, 1, false)
}

// RunSharded partitions the instance into independent shards (the
// connected components of machines linked by shared replica sets),
// runs each shard's event loop on one of workers goroutines
// (workers ≤ 0 selects GOMAXPROCS; workers == 1 runs inline with zero
// goroutines), and merges the results. The merged Schedule, Trace,
// and error are byte-identical to Run for every worker count: shards
// share no tasks, int64 tick sums are interleaving-independent, and
// equal-key trace events are same-machine and therefore same-shard.
func (r *FlatRunner) RunSharded(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions, workers int) (*Result, error) {
	return r.run(in, p, order, opts, workers, true)
}

func (r *FlatRunner) run(in *task.Instance, p *placement.Placement, order []int,
	o FlatOptions, workers int, sharded bool) (*Result, error) {
	defer func() { r.opts, r.order = FlatOptions{}, nil }()
	n, m := in.N(), in.M
	r.Reset(n, m)
	// Copy the options into the reused field instead of taking &o: the
	// address of a parameter escapes and would cost one heap
	// allocation per call, breaking the zero-allocation invariant
	// TestKernelAllocations gates. Assigned after Reset (which clears the field)
	// and released on exit by the deferred clear above.
	r.opts = o
	opts := &r.opts
	if err := r.prepare(in, p, order, opts, sharded); err != nil {
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
	r.ensureScratch(workers)
	if workers <= 1 {
		sc := &r.scratch[0]
		for s := 0; s < r.nShards; s++ {
			r.runSpan(in, p, s, sc, opts)
		}
	} else {
		// Striped shard assignment: worker w owns shards w, w+workers,
		// … . Ownership is deterministic but irrelevant to output —
		// every write a shard makes is into task-, machine-, or
		// shard-indexed slots no other shard touches.
		par.Map(workers, workers, func(w int) struct{} {
			sc := &r.scratch[w]
			for s := w; s < r.nShards; s += workers {
				r.runSpan(in, p, s, sc, opts)
			}
			return struct{}{}
		})
	}
	simFlatRuns.Inc()
	simFlatShards.Add(int64(r.nShards))
	var stats spanStats
	for w := range r.scratch {
		stats.add(r.scratch[w].stats)
	}
	stats.queued = int64(len(r.qTasks))
	for _, c := range r.wideHead {
		stats.shared += int64(c)
	}
	simEventsPopped.Add(stats.popped)
	stats.flushPaths()

	// Merge: the error a sequential global event loop would hit first
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
	total := 0
	for s := 0; s < r.nShards; s++ {
		total += int(r.shardStarted[s])
	}
	if total != n {
		if len(r.crashes) > 0 {
			return nil, fmt.Errorf("sim: %d of %d tasks never completed", n-total, n)
		}
		return nil, fmt.Errorf("sim: %d of %d tasks never executed", n-total, n)
	}
	if opts.Trace {
		sortTrace(r.res.Trace)
	}
	if len(opts.Failures) > 0 {
		// No dispatch record: a shard that met a crash erases lost tasks
		// and starts them again, and writes none.
		r.sched.Dispatched = r.sched.Dispatched[:0]
	}
	return &r.res, nil
}

// prepare validates the inputs and builds the SoA state: durations in
// ticks, CSR queues, the shard decomposition, per-shard slots, and —
// when failures are injected — the crash list and failure-mode arrays.
func (r *FlatRunner) prepare(in *task.Instance, p *placement.Placement, order []int,
	opts *FlatOptions, sharded bool) error {
	n, m := in.N(), in.M
	if p.N() != n || p.M != m {
		return fmt.Errorf("sim: placement %dx%d does not match instance %dx%d",
			p.N(), p.M, n, m)
	}
	if len(order) != n {
		return fmt.Errorf("sim: priority order has %d entries for %d tasks", len(order), n)
	}
	if err := placement.CheckSets(p.Sets, m); err != nil {
		return err
	}
	if len(opts.Failures) > 0 && opts.Trace {
		return fmt.Errorf("sim: failures cannot be combined with Trace")
	}
	steal := opts.FetchPenalty != 0
	if steal {
		if !(opts.FetchPenalty >= 1) || math.IsInf(opts.FetchPenalty, 1) {
			return fmt.Errorf("sim: fetch penalty %v (want finite, at least 1)", opts.FetchPenalty)
		}
		if len(opts.Failures) > 0 {
			return fmt.Errorf("sim: a fetch penalty cannot be combined with Failures")
		}
		r.order = order
	}

	// Permutation check; started doubles as the seen-scratch.
	r.started = growZero(r.started, n)
	for _, j := range order {
		if j < 0 || j >= n || r.started[j] {
			return fmt.Errorf("sim: priority order is not a permutation (task %d)", j)
		}
		r.started[j] = true
	}
	clear(r.started)

	// Executed durations in ticks.
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
	}

	// Under a fetch penalty any machine may run any task: one shard, and
	// every task filed in queues so started[] records what is left.
	if sharded && !steal {
		r.partition(p)
	} else {
		r.partitionTrivial(n, m)
	}

	// Per-shard task counts → shard-list and trace regions and (failure
	// mode) task lists.
	r.buildTaskOffsets(n)
	r.shardStarted = growZero(r.shardStarted, r.nShards)
	r.shardErrs = growZero(r.shardErrs, r.nShards)

	// Dispatch lists: a counting pass sizes the queues, then one pass
	// over the order appends each task to its shard's list, or — when
	// its replica set is narrower than the shard — to the queue of every
	// machine holding a replica.
	r.qOff = growZero(r.qOff, m+1)
	for j, set := range p.Sets {
		if steal || !r.wide(r.taskShard[j], set) {
			for _, i := range set {
				r.qOff[i+1]++
			}
		}
	}
	for i := 0; i < m; i++ {
		r.qOff[i+1] += r.qOff[i]
	}
	r.qTasks = grow(r.qTasks, int(r.qOff[m]))
	r.head = growZero(r.head, m) // fill cursors here, scan positions during the run
	r.wideTasks = grow(r.wideTasks, n)
	r.wideLen = growZero(r.wideLen, r.nShards)
	r.wideHead = growZero(r.wideHead, r.nShards)
	r.priorityOf = grow(r.priorityOf, n)
	for pos, j := range order {
		r.priorityOf[j] = int32(pos)
		s, set := r.taskShard[j], p.Sets[j]
		if !steal && r.wide(s, set) {
			r.wideTasks[r.shardTaskOff[s]+r.wideLen[s]] = int32(j)
			r.wideLen[s]++
			continue
		}
		for _, i := range set {
			r.qTasks[r.qOff[i]+r.head[i]] = int32(j)
			r.head[i]++
		}
	}
	clear(r.head)

	if opts.Trace {
		r.res.Trace = grow(r.res.Trace, 2*n)
	}

	// Sized on a failure-mode run too, which hands out no record (run
	// truncates it): 4 B per task there buys crash-free shards a writer
	// with no test in its dispatch loop.
	r.sched.Dispatched = grow(r.sched.Dispatched, n)

	if len(opts.Failures) > 0 {
		if err := r.prepareFailures(in, opts); err != nil {
			return err
		}
	}
	return nil
}

func (r *FlatRunner) prepareFailures(in *task.Instance, opts *FlatOptions) error {
	n, m := in.N(), in.M
	r.crashes = r.crashes[:0]
	for _, f := range opts.Failures {
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
	// the event queue uses. Duplicate keys are identical crashes; the
	// second is a no-op on an already-dead machine.
	sort.Slice(r.crashes, func(a, b int) bool { return mLess(r.crashes[a], r.crashes[b]) })

	// shardTasks: tasks grouped by shard (CSR with shardTaskOff), for
	// the per-crash strand checks.
	r.buildTaskLists(n)

	r.dead = growZero(r.dead, m)
	r.dormant = growZero(r.dormant, m)
	r.dormantAt = growZero(r.dormantAt, m)
	r.runTask = grow(r.runTask, m)
	for i := range r.runTask {
		r.runTask[i] = -1
	}
	r.runEnd = growZero(r.runEnd, m)
	r.completed = growZero(r.completed, n)
	return nil
}

func (r *FlatRunner) ensureScratch(workers int) {
	if cap(r.scratch) < workers {
		next := make([]flatScratch, workers)
		copy(next, r.scratch[:cap(r.scratch)])
		r.scratch = next
	} else {
		r.scratch = r.scratch[:workers]
	}
	for w := range r.scratch {
		r.scratch[w].stats = spanStats{}
	}
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
