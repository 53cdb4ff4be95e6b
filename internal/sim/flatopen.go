package sim

import (
	"math/bits"

	"repro/internal/sched"
	"repro/internal/tick"
)

// This file holds what only the open-system mode needs: tasks arrive
// over time instead of all being released at t=0, the metric is the
// per-task response-time distribution instead of makespan, and
// replicated tasks interact through an explicit CancelPolicy. A batch
// run is this mode's corner with every arrival at zero under
// CancelOnStart, and the Runner serves both with the same SoA state on
// tick.Tick fixed-point time, the same shard decomposition, the same
// pending sets and the same general loop (spans.go). oracleRunOpen
// (oracle_test.go) states the semantics naively; flat_open_test.go pins
// the equivalence.
//
// # Event model
//
// Two deterministic streams drive a shard's loop: the arrival times
// (indexed by task ID, non-decreasing) and the machine events in
// (time, machine index) order. A machine has at most one pending event
// at any time: its running replica's completion, or the tick it wakes
// to look for work — an arrival made it eligible for a task, or a
// cancelled replica's penalty is paid. So the event set is one key per
// machine, held the way a batch run holds it: a loadheap.Tree over
// ticks with one leaf per machine of the shard, in machine order.
// Scheduling or moving a machine's event is a Set of its leaf, a
// dormant machine's leaf holds tick.Max, and the next event is the
// root, ties to the lower index. At equal times arrivals go first, so
// a machine going idle at t sees every task that arrived at t.
//
// tick.Max means dormant, so no event may land on it: a completion or
// a cancel wake-up that saturates tick.SatAdd fails the shard with
// errSaturated, as in a batch run, instead of retiring a machine that
// still holds work.
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
// replica set" relation are still fully independent simulations,
// replayed one after another with writes into disjoint task-, machine-,
// and shard-indexed slots. The outputs are byte-identical to one global
// loop because every cross-shard reduction is order-independent:
// responses and assignments are per-task, wasted time is an int64 tick
// sum, End is a max, counts are sums.
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
// idle machine takes the earlier of the two minima (take). A task
// leaves the sets once no machine may take it any more:
//
//   - CancelOnStart: when it starts, since every other machine would
//     skip it from then on. The starting machine removes it from the
//     set it took it from; a narrow copy in another machine's set is
//     removed when it comes up there, already started;
//   - CancelOnCompletion: when it completes, from every set it is in
//     (drop), since until then racing machines must all see it. A
//     machine consults the sets only while idle, so never to race
//     itself.
//
// An arrival sets one bit per set it enters. The sets share one slab,
// zeroed in prepare.
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
// Cohort masks are ⌈machines/64⌉ words from the runner's parkSet, so
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

// openTally is one shard's outcome: completed tasks, cancelled
// replicas, wasted ticks, and the last completion or wake-up tick.
type openTally struct {
	done, cancelled int32
	wasted, end     tick.Tick
}

// complete retires machine i's running replica at time now as the
// winner of task j under CancelOnCompletion: record response and
// assignment, drop j from the pending sets, and cancel the losing
// replicas still running elsewhere in the shard, moving each loser's
// event to the tick its cancellation penalty is paid. Returns false, the
// error staged, when that tick saturates.
func (r *Runner) complete(s int, ms []int32, i, j int32, now tick.Tick, out *openTally) bool {
	r.runTask[i] = -1
	out.done++
	r.openRes.Responses[j] = (now - r.arrTick[j]).Seconds()
	out.end = max(out.end, now)
	r.sched.Assignments[j] = sched.Assignment{Machine: int(i), Start: r.runStart[i], End: now}
	r.drop(s, j)
	free := tick.SatAdd(now, r.cancelTick)
	for k, mk := range ms {
		if r.runTask[mk] != j {
			continue
		}
		if free == tick.Max {
			r.fail(mEvent{t: now, m: i}, errSaturated(j, i))
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
		r.tree.Set(k, free)
	}
	return true
}

// tally adds a shard's outcome to the run's.
func (r *Runner) tally(o openTally) {
	r.out.done += o.done
	r.out.cancelled += o.cancelled
	r.out.wasted = tick.SatAdd(r.out.wasted, o.wasted)
	r.out.end = max(r.out.end, o.end)
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
func (r *Runner) replayUniformRace(s int, ms, tasks []int32) {
	t, ps := &r.tree, &r.parks
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
			r.openRes.Responses[j] = (now - r.arrTick[j]).Seconds()
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
				r.fail(mEvent{t: now, m: i}, errSaturated(j, i))
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
				r.fail(mEvent{t: re, m: i}, errSaturated(j, i))
				return
			}
			out.cancelled += cnt
			out.wasted = satAddScaled(out.wasted, tick.SatAdd(re-now, r.cancelTick), cnt)
			out.end = max(out.end, free)
			ps.add(free, unit)
		}
	}
	r.tally(out)
	r.stats.popped += popped
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
func (r *Runner) winner(ms []int32, j int32) int32 {
	for _, i := range ms {
		if r.runTask[i] == j {
			return i
		}
	}
	return -1
}

// narrowEntry is a narrow task's place on one machine: the machine's
// slot (its index in shardMachines, which places its leaf) and the
// task's index in the machine's narrow list.
type narrowEntry struct{ slot, idx int32 }

// drop takes task j of shard s out of the pending sets: the shared set
// if j is wide, else the set of every machine it has a replica on.
func (r *Runner) drop(s int, j int32) {
	es := r.entries[r.narrowOff[j]:r.narrowOff[j+1]]
	if len(es) == 0 {
		r.shared[s].remove(r.pend, r.rank[j])
	}
	for _, e := range es {
		r.narrow[r.shardMachines[e.slot]].remove(r.pend, e.idx)
	}
}
