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
// shard takes one of two paths:
//
//   - replayLinear: a one-machine shard with no crashes has no
//     contention at all — its tasks are, provably, exactly its ranked
//     list, so execution is a linear replay with a running tick sum and
//     no event tree (the none-placement fast path);
//   - replayGeneral: the event loop over the shard's machines, the only
//     one a fetch-penalty run takes, and the one every shard some crash
//     reaches takes, with its crashes as a cursor.
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
		r.replayGeneral(in, p, s, ms, tasks, nil)
		return
	}
	// The crash list from this shard's first on (the loop skips others'),
	// and an empty retry list for its lost tasks.
	var crashes []mEvent
	for x, c := range r.crashes {
		if int(r.shardOf[c.m]) == s {
			crashes, r.retry = r.crashes[x:], r.retry[:0]
			break
		}
	}
	// No crashes reach a linear shard: fail-stop semantics reduce to
	// plain list scheduling, and every started task completes.
	if crashes == nil && len(ms) == 1 && r.batch.FetchPenalty == 0 {
		r.stats.linear++
		r.replayLinear(s, ms[0])
		return
	}
	r.stats.general++
	r.tree.Reset(len(ms)) // every machine idle at t=0
	r.fillPending(s, ms)
	r.replayGeneral(in, p, s, ms, nil, crashes)
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
// every machine idle at zero; it writes the dispatch record where an
// open run writes responses.
//
// A batch shard some crash reaches runs in fail-stop mode (failing), the
// semantics oracleRunFailures states without shards: its crashes are a
// stream merged with the tree minimum as arrivals are, each going before
// the machine events of its tick (crash). A dead machine's event retires
// it, a busy one's is its task completing (the tally counts completions),
// and a lost task on r.retry goes ahead of the pending sets. prepare
// rejects FetchPenalty with Failures, and runBatch drops the dispatch
// record, so this mode writes neither.
func (r *Runner) replayGeneral(in *task.Instance, p *placement.Placement, s int, ms, tasks []int32, crashes []mEvent) {
	t := &r.tree
	onStart, open := r.open.Policy == CancelOnStart, r.openRun
	steal := r.batch.FetchPenalty != 0
	priced := r.open.Duration != nil || steal
	failing := crashes != nil
	ti := 0
	dormant := len(ms) // open: machines whose leaf is tick.Max
	var rec []int32
	if !open {
		rec = r.sched.Dispatched[r.shardTaskOff[s]:]
	}
	nrec := 0 // tasks started under CancelOnStart, outside fail-stop mode
	var out openTally
	var popped, fromShared int64
events:
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
		if failing {
			for len(crashes) > 0 && int(r.shardOf[crashes[0].m]) != s {
				crashes = crashes[1:] // another shard's
			}
			if len(crashes) > 0 && crashes[0].t <= now {
				c := crashes[0]
				crashes = crashes[1:]
				if !r.crash(p, s, ms, c, &out) {
					break events
				}
				continue
			}
		}
		if now == tick.Max {
			break // every task arrived, every machine dormant, no crash left
		}
		popped++
		k := t.MinID()
		i := ms[k]

		// An event on a busy machine is its replica completing under
		// CancelOnCompletion and in fail-stop mode; otherwise the dispatch
		// recorded everything a completion would. A dead machine runs
		// nothing and takes nothing: it retires as if dormant.
		j, shared := int32(-1), false
		if failing {
			if jr := r.runTask[i]; jr >= 0 {
				r.completed[jr] = true
				out.done++
				r.runTask[i] = -1
			}
			if !r.dead[i] {
				if j = r.retried(p, i); j < 0 { // lost tasks first
					j, shared = r.take(s, i, onStart)
				}
			}
		} else {
			if !onStart {
				if jr := r.runTask[i]; jr >= 0 && !r.complete(s, ms, i, jr, now, &out) {
					break events
				}
			}
			j, shared = r.take(s, i, onStart)
		}
		if j < 0 {
			t.Set(k, tick.Max) // dormant until an eligible arrival or a loss wakes it
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
				break events
			}
		} else {
			d = r.durTick[j]
		}
		end := tick.SatAdd(now, d)
		if end == tick.Max {
			r.fail(mEvent{t: now, m: i}, errSaturated(j, i))
			break events
		}
		if onStart {
			r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: now, End: end}
			switch {
			case open:
				r.openRes.Responses[j] = (end - r.arrTick[j]).Seconds()
				out.end = max(out.end, end)
				nrec++
			case failing:
				r.runTask[i] = j // completes at end unless its machine crashes first
			default:
				rec[nrec] = j
				nrec++
			}
		} else {
			r.runTask[i] = j
			r.runStart[i] = now
		}
		t.Set(k, end)
	}
	// A staged error abandons the shard here too; the error outranks the tally.
	out.done += int32(nrec)
	r.tally(out)
	r.stats.popped += popped
	if !steal { // a fetch takes from the shared set, but from no list
		r.stats.shared += fromShared
	}
}

// crash kills machine c.m of fail-stop shard s at c.t. Its running task
// completes if it ends at the crash; else it is lost, erased and put on
// the retry list, and every dormant (live, leaf at tick.Max) machine of
// the shard wakes at c.t. Returns false, the error staged at c, when a
// task is left unfinished with no live replica; a task running on a live
// machine has one there.
func (r *Runner) crash(p *placement.Placement, s int, ms []int32, c mEvent, out *openTally) bool {
	if r.dead[c.m] {
		return true // a duplicate
	}
	r.dead[c.m] = true
	if j := r.runTask[c.m]; j >= 0 {
		r.runTask[c.m] = -1
		if r.sched.Assignments[j].End <= c.t {
			// It finished at the crash; the dead machine's event is skipped.
			r.completed[j] = true
			out.done++
		} else {
			r.sched.Assignments[j] = sched.Assignment{}
			if !survivable(p, int(j), r.dead) {
				//lint:ignore hotalloc unsurvivable-crash error path: the run is over, allocation is fine
				r.fail(c, fmt.Errorf("%w: task %d only on machine %d", ErrUnsurvivable, j, c.m))
				return false
			}
			r.retry = append(r.retry, j)
			for k, i := range ms {
				if r.tree.Key(k) == tick.Max && !r.dead[i] {
					r.tree.Set(k, c.t)
				}
			}
		}
	}
	for _, j := range r.shardTasks[r.shardTaskOff[s]:r.shardTaskOff[s+1]] {
		if !r.completed[j] && !survivable(p, int(j), r.dead) {
			//lint:ignore hotalloc unsurvivable-crash error path: the run is over, allocation is fine
			r.fail(c, fmt.Errorf("%w: task %d", ErrUnsurvivable, j))
			return false
		}
	}
	return true
}

// retried takes the highest-priority lost task machine i holds a replica
// of off the retry list, or returns -1 when there is none.
func (r *Runner) retried(p *placement.Placement, i int32) int32 {
	best := -1
	for x, j := range r.retry {
		if (best < 0 || r.rank[j] < r.rank[r.retry[best]]) && machineEligible(p, int(j), int(i)) {
			best = x
		}
	}
	if best < 0 {
		return -1
	}
	j := r.retry[best]
	r.retry[best] = r.retry[len(r.retry)-1]
	r.retry = r.retry[:len(r.retry)-1]
	return j
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
	now := tick.Tick(0)
	for k, j := range q {
		end := tick.SatAdd(now, r.durTick[j])
		if end == tick.Max {
			r.fail(mEvent{t: now, m: mach}, errSaturated(j, mach))
			r.stats.shared += int64(k)
			return
		}
		r.sched.Assignments[j] = sched.Assignment{Machine: int(mach), Start: now, End: end}
		now = end
	}
	copy(r.sched.Dispatched[r.shardTaskOff[s]:], q) // started in rank order
	r.out.done += int32(len(q))
	r.stats.shared += int64(len(q))
}
