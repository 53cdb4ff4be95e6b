package sim

import (
	"fmt"

	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

// flatScratch is one worker's private event-loop state. Each worker
// owns one, so shards running concurrently never share an event tree.
type flatScratch struct {
	tree    loadheap.Tree[tick.Tick] // the shard's machines by next event tick
	retry   []int32
	crashes []mEvent
	stats   spanStats
}

// runSpan executes shard s to completion, writing only task-, machine-
// and shard-indexed state no other shard touches. Three paths:
//
//   - replayLinear: a one-machine shard with no crashes has no
//     contention at all — its tasks are, provably, exactly its shard
//     list, so execution is a linear replay with a running tick sum and
//     no event tree (the none-placement fast path);
//   - runSpanTree: the general event loop over the shard's machines,
//     and the only one a fetch-penalty run takes (its tasks sit in the
//     queues, not on the shard list);
//   - runSpanFailures: the fail-stop loop, used only for shards that
//     actually contain crashes.
//
// This is the benchmarked FlatRunner event loop: everything statically
// reachable from here must not allocate (the hotalloc rule enforces it).
//
//perf:hotpath
func (r *FlatRunner) runSpan(in *task.Instance, p *placement.Placement, s int,
	sc *flatScratch, opts *FlatOptions) {
	ms := r.shardMachines[r.shardOff[s]:r.shardOff[s+1]]
	if len(r.crashes) > 0 {
		sc.crashes = sc.crashes[:0]
		for _, c := range r.crashes {
			if int(r.shardOf[c.m]) == s {
				sc.crashes = append(sc.crashes, c)
			}
		}
		if len(sc.crashes) > 0 {
			sc.stats.general++
			r.runSpanFailures(p, s, ms, sc)
			return
		}
		// No crashes reach this shard: fail-stop semantics reduce to
		// plain list scheduling, and every started task completes.
	}
	if len(ms) == 1 && opts.FetchPenalty == 0 {
		sc.stats.linear++
		r.replayLinear(s, ms[0], opts)
		return
	}
	sc.stats.general++
	r.runSpanTree(in, s, ms, sc, opts)
}

// replayLinear executes a one-machine shard without an event tree. A replica
// set inside a one-machine shard is that machine (any second replica
// would have merged it into a larger component), so the shard list
// holds every task of the shard and the whole run is one pass over it
// accumulating a tick clock. Who pays for this path: the `none` class
// of pipeline-fresh and SimLoop/n=100k, whose shards are all of this
// kind. Sent through runSpanTree instead they take an event per task
// (sim.events_per_task on pipeline-fresh 0.7548 → 1.0064), `none` falls
// from 2.90M to 2.59M tasks/s and SimLoop from 14.7M to 9.5M, under its
// 10M floor (alternating runs, CHANGES.md PR 17).
func (r *FlatRunner) replayLinear(s int, mach int32, opts *FlatOptions) {
	q := r.wideTasks[r.shardTaskOff[s]:][:r.wideLen[s]]
	var trace []Event
	tr := 0
	if opts.Trace {
		trace = r.res.Trace[2*r.shardTaskOff[s]:]
	}
	now := tick.Tick(0)
	mi := int(mach)
	for k, j := range q {
		end := tick.SatAdd(now, r.durTick[j])
		if end == tick.Max {
			r.shardErrs[s] = spanError{key: mEvent{t: now, m: mach}, err: errSaturated(j, mach)}
			r.shardStarted[s], r.wideHead[s] = int32(k), int32(k)
			return
		}
		r.sched.Assignments[j] = sched.Assignment{Machine: mi, Start: now, End: end}
		if opts.Trace {
			trace[tr] = Event{Time: now, Machine: mi, Task: int(j), Kind: "start"}
			trace[tr+1] = Event{Time: end, Machine: mi, Task: int(j), Kind: "finish"}
			tr += 2
		}
		now = end
	}
	copy(r.sched.Dispatched[r.shardTaskOff[s]:], q) // started in list order
	r.shardStarted[s], r.wideHead[s] = r.wideLen[s], r.wideLen[s]
}

// pick hands machine i of shard s the highest-priority unstarted task
// it holds a replica of, or -1 when none is left: the earlier-in-order
// of the shard list's head and the first unstarted entry of its own
// queue. That is a started-skip scan over one queue holding both: list
// tasks start in list order (whichever machine takes one takes the
// first left), so the cursor is never behind an unstarted list task,
// and queue entries are skipped once another replica's machine has
// started them.
//
// Under FlatOptions.FetchPenalty (order non-nil, nothing on the list) a
// machine whose own queue has run out takes the first unstarted task of
// the whole order instead, and remote reports it: the task was in no
// queue of i, so i holds no replica of it. Tasks only ever become
// started, so the cursor never passes one that is still to run.
func (r *FlatRunner) pick(s int, i int32) (j int32, remote bool) {
	q := r.qTasks[r.qOff[i]:r.qOff[i+1]]
	h := r.head[i]
	for int(h) < len(q) && r.started[q[h]] {
		h++
	}
	r.head[i] = h
	if c := r.wideHead[s]; c < r.wideLen[s] {
		if j := r.wideTasks[r.shardTaskOff[s]+c]; int(h) == len(q) || r.priorityOf[j] < r.priorityOf[q[h]] {
			r.wideHead[s] = c + 1
			return j, false
		}
	}
	if int(h) == len(q) {
		for ; r.stealHead < len(r.order); r.stealHead++ {
			if j := r.order[r.stealHead]; !r.started[j] {
				r.started[j] = true
				return int32(j), true
			}
		}
		return -1, false
	}
	r.started[q[h]] = true
	return q[h], false
}

// runSpanTree is the general shard event loop: take the earliest idle
// machine in (time, machine) order, the winner of sc.tree (leaves are
// ms, ascending), pick its task, and set its leaf to the completion
// tick — or to tick.Max, retiring it, when nothing is left it may run.
func (r *FlatRunner) runSpanTree(in *task.Instance, s int, ms []int32, sc *flatScratch, opts *FlatOptions) {
	tree := &sc.tree
	tree.Reset(len(ms)) // every machine idle at t=0
	var trace []Event
	tr := 0
	if opts.Trace {
		trace = r.res.Trace[2*r.shardTaskOff[s]:]
	}
	dispatched := r.sched.Dispatched[r.shardTaskOff[s]:]
	started := int32(0)
	popped := int64(0)
	for {
		k := tree.MinID()
		ev := mEvent{t: tree.MinLoad(), m: ms[k]}
		if ev.t == tick.Max {
			break // every machine has retired
		}
		popped++
		i := ev.m
		j, remote := r.pick(s, i)
		if j < 0 {
			tree.Set(k, tick.Max) // nothing left it may run: the machine retires
			continue
		}
		dispatched[started] = j
		started++
		var d tick.Tick
		if remote {
			// The data is fetched first: FetchPenalty times the actual
			// time. A product past the tick range saturates the
			// completion below, which fails the run.
			var err error
			if d, err = tick.FromSeconds(in.Tasks[j].Actual * opts.FetchPenalty); err != nil {
				d = tick.Max
			}
		} else {
			d = r.durTick[j]
		}
		end := tick.SatAdd(ev.t, d)
		if end == tick.Max {
			r.shardErrs[s] = spanError{key: ev, err: errSaturated(j, i)}
			break
		}
		r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: ev.t, End: end}
		if opts.Trace {
			trace[tr] = Event{Time: ev.t, Machine: int(i), Task: int(j), Kind: "start"}
			trace[tr+1] = Event{Time: end, Machine: int(i), Task: int(j), Kind: "finish"}
			tr += 2
		}
		tree.Set(k, end)
	}
	r.shardStarted[s] = started
	sc.stats.popped += popped
}

// runSpanFailures is the shard-local fail-stop loop: list scheduling
// with lost tasks re-offered ahead of the queues, machines that found
// no work kept dormant until a loss gives them some, crashes processed
// before machine events of the same instant, and a strand check per
// crash — restricted to the shard's machines, tasks, and crashes. The
// restriction preserves the global semantics (oracleRunFailures in
// oracle_test.go states them without shards): a crash can only strand
// or free tasks whose replicas live in the crashing machine's shard,
// and waking another shard's dormant machine is output-neutral (it
// finds no work and goes dormant again). Trace and FetchPenalty are
// rejected in prepare, so this path never consults them.
func (r *FlatRunner) runSpanFailures(p *placement.Placement, s int, ms []int32, sc *flatScratch) {
	// The loop runs as a separate function so its early error returns
	// and the normal exit share one explicit teardown here — a deferred
	// closure would do the same job but allocates, and this is the
	// benchmarked zero-alloc path.
	completedCount, retry := r.failureLoop(p, s, ms, sc)
	sc.retry = retry[:0]
	// In failure mode the per-shard tally is completions, matching
	// the sequential engine's never-completed accounting.
	r.shardStarted[s] = completedCount
}

// failureLoop is runSpanFailures' event loop, returning the completion
// tally and the (possibly regrown) retry slice for reuse. Its event
// tree is runSpanTree's, and a dormant machine's leaf waits at tick.Max
// until a loss wakes it; a crash at or before the earliest event goes
// first.
func (r *FlatRunner) failureLoop(p *placement.Placement, s int, ms []int32,
	sc *flatScratch) (int32, []int32) {
	tree := &sc.tree
	tree.Reset(len(ms))
	retry := sc.retry[:0]
	crashes := sc.crashes
	tasks := r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]]
	completedCount := int32(0)

	for {
		k := tree.MinID()
		ev := mEvent{t: tree.MinLoad(), m: ms[k]}
		if len(crashes) > 0 && crashes[0].t <= ev.t {
			c := crashes[0]
			crashes = crashes[1:]
			if r.dead[c.m] {
				continue
			}
			r.dead[c.m] = true
			if j := r.runTask[c.m]; j >= 0 {
				switch {
				case r.runEnd[c.m] <= c.t:
					// Finished exactly at (or before) the crash; its idle
					// event will be skipped on the dead machine.
					r.completed[j] = true
					completedCount++
					r.runTask[c.m] = -1
				case !r.completed[j]:
					// In-flight work is lost: erase and re-offer.
					r.sched.Assignments[j] = sched.Assignment{}
					r.runTask[c.m] = -1
					if !survivable(p, int(j), r.dead) {
						//lint:ignore hotalloc unsurvivable-crash error path: the run is over, allocation is fine
						r.shardErrs[s] = spanError{key: c, err: fmt.Errorf(
							"%w: task %d only on machine %d", ErrUnsurvivable, j, c.m)}
						return completedCount, retry
					}
					retry = append(retry, j)
					for leaf, i := range ms {
						if r.dormant[i] && !r.dead[i] {
							r.dormant[i] = false
							tree.Set(leaf, max(c.t, r.dormantAt[i]))
						}
					}
				}
			}
			// A pending task whose every replica is dead is stranded.
			for _, j := range tasks {
				if !r.completed[j] && !survivable(p, int(j), r.dead) && !r.shardRunningAlive(ms, j) {
					//lint:ignore hotalloc unsurvivable-crash error path: the run is over, allocation is fine
					r.shardErrs[s] = spanError{key: c, err: fmt.Errorf("%w: task %d", ErrUnsurvivable, j)}
					return completedCount, retry
				}
			}
			continue
		}
		if ev.t == tick.Max {
			break // every machine has retired or is dormant, and no crash is left
		}
		sc.stats.popped++
		i := ev.m
		if r.dead[i] {
			tree.Set(k, tick.Max)
			continue
		}
		if j := r.runTask[i]; j >= 0 && r.runEnd[i] <= ev.t {
			r.completed[j] = true
			completedCount++
			r.runTask[i] = -1
		}
		// Dispatch: lost tasks first (highest priority among those
		// eligible here), then the shard list and the machine's queue.
		j := int32(-1)
		bestIdx := -1
		for idx, cand := range retry {
			if (bestIdx < 0 || r.priorityOf[cand] < r.priorityOf[retry[bestIdx]]) &&
				machineEligible(p, int(cand), int(i)) {
				bestIdx = idx
			}
		}
		if bestIdx >= 0 {
			j = retry[bestIdx]
			retry[bestIdx] = retry[len(retry)-1]
			retry = retry[:len(retry)-1]
		} else {
			j, _ = r.pick(s, i) // never remote: prepare rejects Failures with a fetch penalty
		}
		if j < 0 {
			r.dormant[i] = true
			r.dormantAt[i] = ev.t
			tree.Set(k, tick.Max)
			continue
		}
		end := tick.SatAdd(ev.t, r.durTick[j])
		if end == tick.Max {
			r.shardErrs[s] = spanError{key: ev, err: errSaturated(j, i)}
			return completedCount, retry
		}
		r.runTask[i] = j
		r.runEnd[i] = end
		r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: ev.t, End: end}
		tree.Set(k, end)
	}
	return completedCount, retry
}

// shardRunningAlive reports whether task j is in flight on an alive
// machine of the shard.
func (r *FlatRunner) shardRunningAlive(ms []int32, j int32) bool {
	for _, i := range ms {
		if r.runTask[i] == j && !r.dead[i] {
			return true
		}
	}
	return false
}
