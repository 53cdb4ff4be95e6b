package sim

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
)

// replaySpan executes shard s to completion, writing only task-,
// machine- and shard-indexed state no other shard touches. A batch
// shard takes one of three paths:
//
//   - replayLinear: a one-machine shard with no crashes has no
//     contention at all — its tasks are, provably, exactly its ranked
//     list, so execution is a linear replay with a running tick sum and
//     no event tree (the none-placement fast path);
//   - replayGeneral: the event loop over the shard's machines, and the
//     only one a fetch-penalty run takes;
//   - failureLoop: the fail-stop loop, used only for shards that
//     actually contain crashes.
//
// An open shard takes replayUniformRace when race collapse applies
// (flatopen.go) and replayGeneral otherwise.
//
// This is the benchmarked event loop of both modes: everything
// statically reachable from here must not allocate (the hotalloc rule
// enforces it).
//
//perf:hotpath
func (r *Runner) replaySpan(in *task.Instance, p *placement.Placement, s int) {
	ms := r.shardMachines[r.shardOff[s]:r.shardOff[s+1]]
	if r.openRun {
		tasks := r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]]
		r.tree.ResetRetired(len(ms)) // every machine dormant until a task arrives
		// A shard is uniform (every replica set is the whole shard) when its
		// machines list no narrow task.
		uniform := true
		for _, i := range ms {
			uniform = uniform && r.qOff[i] == r.qOff[i+1]
		}
		switch {
		case uniform && r.raceOK:
			r.stats.race++
			r.replayUniformRace(s, ms, tasks)
			return
		case uniform:
			r.stats.uniform++
		default:
			r.stats.general++
		}
		r.replayGeneral(in, s, ms, tasks)
		return
	}
	for _, c := range r.crashes {
		if int(r.shardOf[c.m]) == s {
			r.stats.general++
			r.fillPending(s, ms)
			r.failureLoop(p, s, ms)
			return
		}
	}
	// No crashes reach this shard: fail-stop semantics reduce to plain
	// list scheduling, and every started task completes.
	if len(ms) == 1 && r.batch.FetchPenalty == 0 {
		r.stats.linear++
		r.replayLinear(s, ms[0])
		return
	}
	r.stats.general++
	r.tree.Reset(len(ms)) // every machine idle at t=0
	r.fillPending(s, ms)
	r.replayGeneral(in, s, ms, nil)
}

// fillPending puts every task of batch shard s in its pending sets, as
// if all had arrived at zero: the shard's ranks minus its narrow tasks
// in the shared set, every narrow list whole in its machine's set. Under
// a fetch penalty the shared set keeps every rank, the tasks a machine
// may fetch.
func (r *Runner) fillPending(s int, ms []int32) {
	sh := &r.shared[s]
	sh.fill(r.pend, int(r.shardTaskOff[s+1]-r.shardTaskOff[s]))
	for _, i := range ms {
		q := r.qTask[r.qOff[i]:r.qOff[i+1]]
		r.narrow[i].fill(r.pend, len(q))
		if r.batch.FetchPenalty == 0 {
			for _, j := range q {
				sh.remove(r.pend, r.rank[j])
			}
		}
	}
}

// take hands machine i of shard s the highest-priority pending task it
// holds a replica of, or -1 when there is none: the earlier of the
// shared set's minimum and its narrow set's. Under CancelOnStart the
// task leaves the set it was taken from, and a narrow copy of it left in
// another machine's set is dropped there when it comes up, already
// started; under CancelOnCompletion it stays until it completes
// (complete drops it), and started is left alone: nothing on that path
// reads it.
//
// shared reports a task taken from the shared set. Under
// FlatOptions.FetchPenalty every task is on the narrow lists and the
// shared set holds them all: a machine whose narrow set has run dry
// takes the shared set's first unstarted task instead, one it holds no
// replica of.
func (r *Runner) take(s int, i int32, onStart bool) (j int32, shared bool) {
	// min through its inlined fast path: a set taken from in rank order
	// keeps its minimum in lo's word.
	q, ns := r.qTask[r.qOff[i]:r.qOff[i+1]], &r.narrow[i]
	nx := int32(-1)
	for len(q) > 0 {
		if nx = ns.peek(r.pend); nx < 0 {
			nx = ns.descend(r.pend)
		}
		if !onStart || nx < 0 || !r.started[q[nx]] {
			break
		}
		ns.remove(r.pend, nx)
	}
	sh := &r.shared[s]
	wx := sh.peek(r.pend)
	if wx < 0 {
		wx = sh.descend(r.pend)
	}
	if r.batch.FetchPenalty != 0 {
		if nx >= 0 {
			wx = -1 // local work first
		}
		// The shared set holds every task, so a machine's own takes leave
		// their ranks behind in it: drop the started ones as they surface.
		for wx >= 0 && r.started[r.rankTask[r.shardTaskOff[s]+wx]] {
			sh.remove(r.pend, wx)
			wx = sh.min(r.pend)
		}
	}
	from, x := ns, nx
	switch {
	case wx >= 0 && (nx < 0 || wx < r.rank[q[nx]]):
		from, x = sh, wx
		j, shared = r.rankTask[r.shardTaskOff[s]+wx], true
	case nx >= 0:
		j = q[nx]
	default:
		return -1, false
	}
	if onStart {
		from.remove(r.pend, x)
		r.started[j] = true
	}
	return j, shared
}

// replayGeneral is the shard event loop off the fast paths: take the
// earliest event in (time, machine) order, the winner of r.tree (leaves
// are ms, ascending), retire a completing replica, take the machine's
// next task from the pending sets and set its leaf to the completion
// tick — or to tick.Max, dormant, when nothing is left it may run.
//
// An open run interleaves the shard's arrival stream, tasks, each of
// which enters the pending sets once (arrive). Every mixed shard takes
// this loop — ABO_Δ's, SABO_Δ's and ReplicateTail's pinned tasks beside
// replicated ones — and so does a uniform one off race collapse,
// open-replay's `ev-cos` class (sim.shards_uniform), which the shared
// set alone serves: with its tasks filed per machine instead it falls
// from 5.26M to 0.65M tasks/s (traced seed-7 runs on a 2-core x86-64
// host; CHANGES.md, the pending-set entry).
//
// A batch run has no arrivals (tasks is nil), every set filled and
// every machine idle at zero; it writes the trace and the dispatch
// record where an open run writes responses.
func (r *Runner) replayGeneral(in *task.Instance, s int, ms, tasks []int32) {
	t := &r.tree
	onStart, open := r.open.Policy == CancelOnStart, r.openRun
	steal := r.batch.FetchPenalty != 0
	priced := r.open.Duration != nil || steal
	ti := 0
	dormant := len(ms) // open: machines whose leaf is tick.Max
	var rec []int32
	var trace []Event
	if !open {
		rec = r.sched.Dispatched[r.shardTaskOff[s]:]
		if r.batch.Trace {
			trace = r.res.Trace[2*r.shardTaskOff[s]:]
		}
	}
	nrec := 0 // tasks started under CancelOnStart
	var out openTally
	var popped, fromShared int64
	for {
		// Interleave the two sorted streams; arrivals first at ties so
		// a machine going idle at t sees every task arriving at t.
		now := t.MinLoad()
		if ti < len(tasks) {
			if j := tasks[ti]; r.arrTick[j] <= now {
				ti++
				dormant = r.arrive(s, ms, j, dormant)
				continue
			}
		}
		if now == tick.Max {
			break // every task arrived, every machine dormant
		}
		popped++
		k := t.MinID()
		i := ms[k]

		// Under CancelOnCompletion an event on a busy machine is its
		// replica completing; under CancelOnStart the dispatch recorded
		// everything a completion would.
		if !onStart {
			if j := r.runTask[i]; j >= 0 && !r.complete(s, ms, i, j, now, &out) {
				return
			}
		}

		j, shared := r.take(s, i, onStart)
		if j < 0 {
			t.Set(k, tick.Max) // dormant until an eligible arrival wakes it
			dormant++
			continue
		}
		if shared {
			fromShared++
		}
		var d tick.Tick
		if priced {
			var ok bool
			if d, ok = r.pricedTicks(in, j, i, now, shared && steal); !ok {
				return // error staged; abandon the shard
			}
		} else {
			d = r.durTick[j]
		}
		end := tick.SatAdd(now, d)
		if end == tick.Max {
			r.fail(mEvent{t: now, m: i}, errSaturated(j, i))
			return
		}
		if onStart {
			r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: now, End: end}
			if open {
				r.openRes.Responses[j] = (end - r.arrTick[j]).Seconds()
				out.end = max(out.end, end)
			} else {
				rec[nrec] = j
				if trace != nil {
					trace[2*nrec] = Event{Time: now, Machine: int(i), Task: int(j), Kind: "start"}
					trace[2*nrec+1] = Event{Time: end, Machine: int(i), Task: int(j), Kind: "finish"}
				}
			}
			nrec++
		} else {
			r.runTask[i] = j
			r.runStart[i] = now
		}
		t.Set(k, end)
	}
	out.done += int32(nrec)
	r.tally(out)
	r.stats.popped += popped
	if !steal { // a fetch takes from the shared set, but from no list
		r.stats.shared += fromShared
	}
}

// arrive enters task j of shard s in the pending sets at its arrival
// tick: a wide task the shard's shared set, waking every dormant
// machine, a narrow one the set of each machine it has a replica on,
// waking that machine. dormant counts the shard's machines whose leaf is
// tick.Max; arrive returns it updated.
func (r *Runner) arrive(s int, ms []int32, j int32, dormant int) int {
	t, at, so := &r.tree, r.arrTick[j], r.shardOff[s]
	es := r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
	if len(es) == 0 {
		r.shared[s].push(r.pend, r.rank[j])
		if dormant > 0 {
			for k := range ms {
				if t.Key(k) == tick.Max {
					t.Set(k, at) // a dormant machine wakes to look
				}
			}
		}
		return 0
	}
	for _, e := range es {
		r.narrow[ms[e.slot-so]].push(r.pend, e.idx)
		if k := int(e.slot - so); t.Key(k) == tick.Max {
			t.Set(k, at)
			dormant--
		}
	}
	return dormant
}

// pricedTicks is the executed duration of task j on machine i when it
// is not simply j's actual time: fetched remotely under a fetch penalty,
// or given by the open run's Duration hook. Returns false, the error
// staged at the current event, for a hook value without a tick
// representation: a negative or non-finite duration has none, so the
// hook's contract is enforced here rather than trusted.
func (r *Runner) pricedTicks(in *task.Instance, j, i int32, now tick.Tick, remote bool) (tick.Tick, bool) {
	switch {
	case remote:
		// The data is fetched first: FetchPenalty times the actual time.
		// A product past the tick range saturates the completion, which
		// fails the run.
		d, err := tick.FromSeconds(in.Tasks[j].Actual * r.batch.FetchPenalty)
		if err != nil {
			return tick.Max, true
		}
		return d, true
	case r.open.Duration == nil:
		return r.durTick[j], true
	}
	sec := r.open.Duration(int(j), int(i))
	d, err := tick.FromSeconds(sec)
	if err == nil && d < 0 {
		//lint:ignore hotalloc duration-hook rejection path: the run is over, allocation is fine
		err = fmt.Errorf("returned negative %v", sec)
	}
	if err != nil {
		//lint:ignore hotalloc duration-hook rejection path: the run is over, allocation is fine
		r.fail(mEvent{t: now, m: i}, fmt.Errorf("sim: duration hook for task %d on machine %d: %w", j, i, err))
		return 0, false
	}
	return d, true
}

// replayLinear executes a one-machine batch shard without an event
// tree. A replica set inside a one-machine shard is that machine (any
// second replica would have merged it into a larger component), so the
// shard's ranked list holds every task it runs and the whole run is one
// pass over it accumulating a tick clock. Who pays for this path: the
// `none` class of pipeline-fresh and SimLoop/n=100k, whose shards are
// all of this kind. Sent through the event loop instead they take an
// event per task (sim.events_per_task on pipeline-fresh 0.7548 →
// 1.0064), `none` falls from 2.90M to 2.59M tasks/s and SimLoop from
// 14.7M to 9.5M, under its 10M floor (alternating runs, CHANGES.md PR
// 17).
func (r *Runner) replayLinear(s int, mach int32) {
	q := r.rankTask[r.shardTaskOff[s]:r.shardTaskOff[s+1]]
	var trace []Event
	tr := 0
	if r.batch.Trace {
		trace = r.res.Trace[2*r.shardTaskOff[s]:]
	}
	now := tick.Tick(0)
	mi := int(mach)
	for k, j := range q {
		end := tick.SatAdd(now, r.durTick[j])
		if end == tick.Max {
			r.fail(mEvent{t: now, m: mach}, errSaturated(j, mach))
			r.stats.shared += int64(k)
			return
		}
		r.sched.Assignments[j] = sched.Assignment{Machine: mi, Start: now, End: end}
		if r.batch.Trace {
			trace[tr] = Event{Time: now, Machine: mi, Task: int(j), Kind: "start"}
			trace[tr+1] = Event{Time: end, Machine: mi, Task: int(j), Kind: "finish"}
			tr += 2
		}
		now = end
	}
	copy(r.sched.Dispatched[r.shardTaskOff[s]:], q) // started in rank order
	r.out.done += int32(len(q))
	r.stats.shared += int64(len(q))
}

// failureLoop is the shard-local fail-stop loop: list scheduling with
// lost tasks re-offered ahead of the pending sets, machines that found
// no work kept dormant until a loss gives them some, crashes processed
// before machine events of the same instant, and a strand check per
// crash — restricted to the shard's machines, tasks, and crashes. The
// restriction preserves the global semantics (oracleRunFailures in
// oracle_test.go states them without shards): a crash can only strand
// or free tasks whose replicas live in the crashing machine's shard,
// and waking another shard's dormant machine is output-neutral (it
// finds no work and goes dormant again). Trace and FetchPenalty are
// rejected in prepare, so this path never consults them. Its event tree
// is replayGeneral's, and a dormant machine's leaf waits at tick.Max
// until a loss wakes it; a crash at or before the earliest event goes
// first. In fail-stop mode the shard's tally is completions, matching
// the never-completed accounting.
func (r *Runner) failureLoop(p *placement.Placement, s int, ms []int32) {
	tree := &r.tree
	tree.Reset(len(ms))
	r.retry = r.retry[:0]
	crashes := r.crashes
	tasks := r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]]

	for {
		k := tree.MinID()
		ev := mEvent{t: tree.MinLoad(), m: ms[k]}
		for len(crashes) > 0 && int(r.shardOf[crashes[0].m]) != s {
			crashes = crashes[1:] // another shard's
		}
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
					r.out.done++
					r.runTask[c.m] = -1
				case !r.completed[j]:
					// In-flight work is lost: erase and re-offer.
					r.sched.Assignments[j] = sched.Assignment{}
					r.runTask[c.m] = -1
					if !survivable(p, int(j), r.dead) {
						//lint:ignore hotalloc unsurvivable-crash error path: the run is over, allocation is fine
						r.fail(c, fmt.Errorf("%w: task %d only on machine %d", ErrUnsurvivable, j, c.m))
						return
					}
					r.retry = append(r.retry, j)
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
					r.fail(c, fmt.Errorf("%w: task %d", ErrUnsurvivable, j))
					return
				}
			}
			continue
		}
		if ev.t == tick.Max {
			return // every machine has retired or is dormant, and no crash is left
		}
		r.stats.popped++
		i := ev.m
		if r.dead[i] {
			tree.Set(k, tick.Max)
			continue
		}
		if j := r.runTask[i]; j >= 0 && r.runEnd[i] <= ev.t {
			r.completed[j] = true
			r.out.done++
			r.runTask[i] = -1
		}
		// Dispatch: lost tasks first (highest priority among those
		// eligible here), then the pending sets.
		j := int32(-1)
		bestIdx := -1
		for idx, cand := range r.retry {
			if (bestIdx < 0 || r.rank[cand] < r.rank[r.retry[bestIdx]]) &&
				machineEligible(p, int(cand), int(i)) {
				bestIdx = idx
			}
		}
		if bestIdx >= 0 {
			j = r.retry[bestIdx]
			r.retry[bestIdx] = r.retry[len(r.retry)-1]
			r.retry = r.retry[:len(r.retry)-1]
		} else {
			// Never a fetch: prepare rejects Failures with a fetch penalty.
			var shared bool
			if j, shared = r.take(s, i, true); shared {
				r.stats.shared++
			}
		}
		if j < 0 {
			r.dormant[i] = true
			r.dormantAt[i] = ev.t
			tree.Set(k, tick.Max)
			continue
		}
		end := tick.SatAdd(ev.t, r.durTick[j])
		if end == tick.Max {
			r.fail(ev, errSaturated(j, i))
			return
		}
		r.runTask[i] = j
		r.runEnd[i] = end
		r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: ev.t, End: end}
		tree.Set(k, end)
	}
}

// shardRunningAlive reports whether task j is in flight on an alive
// machine of the shard.
func (r *Runner) shardRunningAlive(ms []int32, j int32) bool {
	for _, i := range ms {
		if r.runTask[i] == j && !r.dead[i] {
			return true
		}
	}
	return false
}
