package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tick"
)

// Shards by the replay path that executed them, over both modes: the
// counters that say whether a run's shards reached a fast path or fell
// to the general loop. In an open run, sim.shards_uniform is the
// general loop's all-wide shards (ev-cos, say) and sim.shards_general
// its mixed ones (ABO_Δ, say); a batch run counts every shard off the
// linear replay as general. The last two are a batch run's dispatch
// structure: narrow-list entries built (the Σ|M_j| term, 0 when every
// replica set is its whole shard) and tasks taken from a shared set.
var (
	shardsLinear     = obs.GetCounter("sim.shards_linear")
	shardsUniform    = obs.GetCounter("sim.shards_uniform")
	shardsRace       = obs.GetCounter("sim.shards_race_collapse")
	shardsGeneral    = obs.GetCounter("sim.shards_general")
	queueEntries     = obs.GetCounter("sim.queue_entries")
	sharedDispatches = obs.GetCounter("sim.shared_dispatches")
)

// spanStats is a run's tally over the shards it executed: plain ints
// bumped by the span loops and flushed to obs once per run, so the
// per-event cost is an increment, never an atomic.
type spanStats struct {
	popped                         int64 // events popped
	linear, uniform, race, general int64 // shards by path
	shared                         int64 // batch: tasks taken from a shared set
}

// errSaturated is the shard error for a completion time that hit
// tick.SatAdd's clamp, or in the open engine the wake-up of the losers
// that completion cancels: the schedule past that point would be a
// plausible-looking fiction, so the run fails instead.
func errSaturated(j, machine int32) error {
	//lint:ignore hotalloc tick-range overflow path: the run is over, allocation is fine
	return fmt.Errorf("sim: completion of task %d on machine %d: %w", j, machine, tick.ErrOverflow)
}

// mEvent is a machine event (idle or crash) in fixed-point time.
// Ordering is (tick, machine) — two int64-comparable fields, no float
// compares: the engine's event order (loadheap.Tree over ticks, leaves
// in machine order) and the order crashes and shard errors sort in.
type mEvent struct {
	t tick.Tick
	m int32
}

func mLess(a, b mEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.m < b.m
}

// shardSet is the Runner's shard decomposition, for batch and open
// runs alike: the connected components of machines under the "appears
// in the same replica set" relation, plus the task-side CSR bookkeeping
// the runner hangs its per-shard state on. It is embedded, so the
// runner addresses the fields directly (r.shardOf, r.shardTasks, …).
type shardSet struct {
	parent        []int32 // union-find scratch over machines
	shardOf       []int32
	shardMachines []int32
	shardOff      []int32
	shardTaskOff  []int32
	shardTasks    []int32
	nShards       int
}

// partition decomposes the placement into shards: the connected
// components of machines under the "appears in the same replica set"
// relation. Tasks on different shards share no machines and no
// replicas, so their simulations are independent — the structural fact
// the sharded runners exploit and the differential suites verify.
//
// Shard IDs are assigned in order of each component's lowest machine
// index, so the decomposition (and everything downstream: record
// regions, merge order) is a deterministic function of the placement
// alone. Within a shard, shardMachines is ascending.
func (ss *shardSet) partition(p *placement.Placement) {
	n, m := p.N(), p.M
	ss.parent = grow(ss.parent, m)
	for i := range ss.parent {
		ss.parent[i] = int32(i)
	}
	var prev []int
	for j := 0; j < n; j++ {
		set := p.Sets[j]
		if len(set) == 1 || placement.SameSet(set, prev) {
			continue // nothing to unite, or united at the last shared set
		}
		prev = set
		root := ss.find(int32(set[0]))
		for _, i := range set[1:] {
			if ri := ss.find(int32(i)); ri != root {
				ss.parent[ri] = root
			}
		}
	}

	// Label components by first machine appearance: pass 1 labels the
	// roots, pass 2 propagates the root's label to every member (a
	// member's slot is only ever written once, and a root's slot only
	// with its own label, so reads and writes cannot collide).
	ss.shardOf = grow(ss.shardOf, m)
	for i := range ss.shardOf {
		ss.shardOf[i] = -1
	}
	ns := int32(0)
	for i := 0; i < m; i++ {
		if root := ss.find(int32(i)); ss.shardOf[root] < 0 {
			ss.shardOf[root] = ns
			ns++
		}
	}
	for i := 0; i < m; i++ {
		ss.shardOf[i] = ss.shardOf[ss.find(int32(i))]
	}
	ss.nShards = int(ns)

	// CSR of shard members. parent has served its purpose, so its
	// prefix is recycled as the per-shard fill cursor.
	ss.shardOff = growZero(ss.shardOff, ss.nShards+1)
	for i := 0; i < m; i++ {
		ss.shardOff[ss.shardOf[i]+1]++
	}
	for s := 0; s < ss.nShards; s++ {
		ss.shardOff[s+1] += ss.shardOff[s]
	}
	cur := ss.parent[:ss.nShards]
	clear(cur)
	ss.shardMachines = grow(ss.shardMachines, m)
	for i := 0; i < m; i++ {
		s := ss.shardOf[i]
		ss.shardMachines[ss.shardOff[s]+cur[s]] = int32(i)
		cur[s]++
	}
}

// wide reports whether set, a replica set of shard s, is the whole
// shard: a set holds distinct machines of one shard, so it is exactly
// when the sizes agree. Tasks with wide sets are interchangeable to
// the shard's dispatcher — one list serves every machine.
func (ss *shardSet) wide(s int32, set []int) bool {
	return len(set) == int(ss.shardOff[s+1]-ss.shardOff[s])
}

// find is union-find root lookup with path compression over parent.
func (ss *shardSet) find(x int32) int32 {
	root := x
	for ss.parent[root] != root {
		root = ss.parent[root]
	}
	for ss.parent[x] != root {
		ss.parent[x], x = root, ss.parent[x]
	}
	return root
}

// partitionTrivial is the degenerate one-shard decomposition the
// sequential entry points use: a single global event loop over all
// machines, the reference the sharded paths are differentially tested
// against.
func (ss *shardSet) partitionTrivial(m int) {
	ss.nShards = 1
	ss.shardOf = growZero(ss.shardOf, m)
	ss.shardMachines = grow(ss.shardMachines, m)
	for i := range ss.shardMachines {
		ss.shardMachines[i] = int32(i)
	}
	ss.shardOff = grow(ss.shardOff, 2)
	ss.shardOff[0], ss.shardOff[1] = 0, int32(m)
}

// buildTaskLists fills shardTasks, the CSR (with the shardTaskOff
// offsets: shard s owns tasks [shardTaskOff[s], shardTaskOff[s+1]) of
// any shard-grouped task list) listing each shard's tasks in ascending task ID. Ascending
// IDs matter to the open engine: arrival times are indexed by task ID
// and non-decreasing, so each shard's slice is already its arrival
// stream. The parent prefix is recycled as the fill cursor (the
// union-find is never consulted again after partition).
func (ss *shardSet) buildTaskLists(p *placement.Placement) {
	cur := growZero(ss.parent, ss.nShards)
	ss.parent = cur[:0]
	ss.shardTasks = grow(ss.shardTasks, p.N())
	for j, set := range p.Sets {
		s := ss.shardOf[set[0]] // a replica set lies inside one shard
		ss.shardTasks[ss.shardTaskOff[s]+cur[s]] = int32(j)
		cur[s]++
	}
}
