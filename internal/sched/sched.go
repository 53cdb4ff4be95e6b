// Package sched represents the output of phase 2: an executed
// schedule, i.e. for every task the machine that ran it and its start
// and completion times (using actual processing times). It computes
// the paper's objectives — makespan C_max = max_i Σ_{j∈E_i} p_j and
// memory occupation Mem_max — and verifies feasibility against a
// phase-1 placement.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/task"
	"repro/internal/tick"
)

// Assignment records one executed task, in simulated ticks: the
// engines add durations as integers, and the schedule keeps what they
// added. Seconds appear at the edges — the JSON codec, the renderers,
// the metrics — and nowhere inside.
type Assignment struct {
	// Machine is the machine that executed the task.
	Machine int
	// Start is the tick execution began.
	Start tick.Tick
	// End is the completion tick; End-Start is the actual processing
	// time p_j in ticks.
	End tick.Tick
}

// Schedule is an executed phase-2 schedule.
type Schedule struct {
	// M is the machine count.
	M int
	// Assignments holds one entry per task: slot j is task j.
	Assignments []Assignment
	// Dispatched, when it has an entry per task, is the order the engine
	// that produced the schedule started the tasks in: task IDs, each
	// machine's in start order (the batch engine writes one region per
	// shard, so machines of different shards are not interleaved by
	// time). It is advice to Verify and nothing else reads it: a record
	// that is empty, short, or wrong in any way costs a sort and changes
	// no answer. Absent after a run with failures (which erases and
	// re-offers assignments) and on a schedule decoded from JSON, which
	// does not carry it.
	Dispatched []int32
}

// Verification errors.
var (
	ErrShapeMismatch  = errors.New("sched: schedule shape does not match instance")
	ErrBadDuration    = errors.New("sched: assignment duration differs from actual time")
	ErrOverlap        = errors.New("sched: two tasks overlap on one machine")
	ErrOutsideReplica = errors.New("sched: task ran on a machine outside its replica set")
	ErrNegativeTime   = errors.New("sched: negative start time")
)

// New returns a schedule shell for n tasks on m machines.
func New(n, m int) *Schedule {
	return &Schedule{M: m, Assignments: make([]Assignment, n)}
}

// Reset re-initializes the schedule as an n-task, m-machine shell,
// reusing the Assignments backing array when its capacity allows. It
// zeroes every field that influences output — M is overwritten, all n
// assignments are cleared and the dispatch record is emptied — so a
// pooled Schedule cycling through trials can never leak state from a
// previous run.
func (s *Schedule) Reset(n, m int) {
	s.M = m
	s.Dispatched = s.Dispatched[:0]
	if cap(s.Assignments) < n {
		s.Assignments = make([]Assignment, n)
	} else {
		s.Assignments = s.Assignments[:n]
		clear(s.Assignments)
	}
}

// Makespan returns max over machines of the last completion time in
// seconds, which for contiguous schedules equals max_i Σ_{j ∈ E_i} p_j.
func (s *Schedule) Makespan() float64 { return s.end().Seconds() }

// end is the makespan in ticks.
func (s *Schedule) end() tick.Tick {
	var end tick.Tick
	for _, a := range s.Assignments {
		end = max(end, a.End)
	}
	return end
}

// Loads returns per-machine total actual processing time in seconds.
func (s *Schedule) Loads() []float64 {
	ticks := make([]tick.Tick, s.M)
	for _, a := range s.Assignments {
		ticks[a.Machine] += a.End - a.Start
	}
	loads := make([]float64, s.M)
	for i, t := range ticks {
		loads[i] = t.Seconds()
	}
	return loads
}

// work returns Σ p_j in ticks.
func (s *Schedule) work() tick.Tick {
	var total tick.Tick
	for _, a := range s.Assignments {
		total += a.End - a.Start
	}
	return total
}

// Imbalance returns C_max · m / Σp_j − 1: zero for a perfectly
// balanced schedule, growing with the gap between the longest machine
// and the average.
func (s *Schedule) Imbalance() float64 {
	total := s.work()
	if total == 0 {
		return 0
	}
	return s.Makespan()*float64(s.M)/total.Seconds() - 1
}

// Verify checks that the schedule is a feasible execution of the
// instance under the placement:
//
//   - one assignment per task, machines in range, starts ≥ 0;
//   - each duration equals the task's actual processing time, in ticks;
//   - tasks on one machine do not overlap in time;
//   - every task runs on a machine in its replica set (when p != nil).
func (s *Schedule) Verify(in *task.Instance, p *placement.Placement) error {
	return s.VerifyDurations(in, p, nil)
}

// VerifyDurations is Verify with a custom expected-duration function,
// for schedules executed under a duration model other than the plain
// actual times: experiment e9 verifies every fetch-penalty run with it
// (sim.FlatOptions.FetchPenalty, remote execution φ times slower). A nil
// dur means the task's actual time on any machine. When dur is
// non-nil the replica-set check is skipped for tasks whose machine is
// outside M_j — running remotely is the point of such models — unless
// p is nil anyway.
//
// Every check is exact. A duration is End−Start == tick.FromSeconds of
// the expected seconds, the one conversion the engines make; a value
// that does not convert (NaN, ±Inf, out of range) is ErrBadDuration.
// Two tasks of one machine overlap when one starts before the other
// ends and the other starts before the one ends, so a task that takes
// no time may sit at the start or the end of another ([5,5] beside
// [5,8]) and not inside it.
//
// The overlap check wants each machine's tasks in start order, and
// there are two sources of that order. A schedule carrying a dispatch
// record (Dispatched) is walked in the recorded order once, every check
// fused into the walk, and a clean walk accepts. Otherwise — no record,
// or the walk met anything it did not like in the record or in the
// schedule — each machine's tasks are sorted by start, then end, then
// ID, and the checks run again; only that run rejects, so the record
// can change how fast an answer comes and never which answer.
func (s *Schedule) VerifyDurations(in *task.Instance, p *placement.Placement,
	dur func(taskID, machine int) float64) error {
	if len(s.Assignments) != in.N() || s.M != in.M {
		return fmt.Errorf("%w: schedule %dx%d vs instance %dx%d",
			ErrShapeMismatch, len(s.Assignments), s.M, in.N(), in.M)
	}
	vs := verifyPool.Get().(*verifyScratch)
	defer verifyPool.Put(vs)
	c := checker{s: s, in: in, p: p, dur: dur}
	if n := len(s.Assignments); len(s.Dispatched) == n {
		if c.recorded(sized(&vs.seen, (n+63)/64), sized(&vs.lanes, s.M)) {
			verifyRecorded.Inc()
			return nil
		}
	}
	verifySorted.Inc()
	return c.sorted(vs)
}

// Which source of order answered a Verify.
var (
	verifyRecorded = obs.GetCounter("sched.verify_recorded")
	verifySorted   = obs.GetCounter("sched.verify_sorted")
)

// checker is one VerifyDurations call.
type checker struct {
	s   *Schedule
	in  *task.Instance
	p   *placement.Placement
	dur func(taskID, machine int) float64
}

// fault is what the checks of one assignment found.
type fault uint8

const (
	feasible fault = iota
	badMachine
	negativeStart
	badDuration
	outsideReplica
)

// want is the duration task j should have run for on machine i: the
// hook's value or the task's actual time, converted as the engines
// convert it.
func (c *checker) want(j, i int) (tick.Tick, error) {
	if c.dur != nil {
		return tick.FromSeconds(c.dur(j, i))
	}
	return tick.FromSeconds(c.in.Tasks[j].Actual)
}

// task runs the checks that concern assignment a of slot j alone and
// names the first that fails; reject words it.
func (c *checker) task(j int, a Assignment) fault {
	switch {
	case a.Machine < 0 || a.Machine >= c.s.M:
		return badMachine
	case a.Start < 0:
		return negativeStart
	}
	// End ≥ Start is checked before the subtraction: with Start ≥ 0, End−Start cannot wrap.
	if want, err := c.want(j, a.Machine); err != nil || a.End < a.Start || a.End-a.Start != want {
		return badDuration
	}
	if c.p != nil && c.dur == nil && !contains(c.p.Sets[j], a.Machine) {
		return outsideReplica
	}
	return feasible
}

func (c *checker) reject(j int, a Assignment, f fault) error {
	switch f {
	case badMachine:
		return fmt.Errorf("%w: task %d machine %d", ErrShapeMismatch, j, a.Machine)
	case negativeStart:
		return fmt.Errorf("%w: task %d starts at %v", ErrNegativeTime, j, a.Start.Seconds())
	case badDuration:
		want, err := c.want(j, a.Machine)
		if err != nil {
			return fmt.Errorf("%w: task %d: %w", ErrBadDuration, j, err)
		}
		return fmt.Errorf("%w: task %d ran %v, expected %v",
			ErrBadDuration, j, (a.End - a.Start).Seconds(), want.Seconds())
	default:
		return fmt.Errorf("%w: task %d on machine %d, replicas %v",
			ErrOutsideReplica, j, a.Machine, c.p.Sets[j])
	}
}

// recorded walks the dispatch record and reports whether it proves the
// schedule feasible: the record names every task exactly once, every
// assignment passes its own checks, and on each machine no task starts
// before every task recorded ahead of it has ended. That makes every
// pair of a machine's tasks disjoint whatever order they are met in,
// so a true answer here is the answer sorted would give. seen holds a
// bit per task and lanes the latest end met per machine (−1 for none,
// below every start the task checks let through); both are overwritten.
//
//perf:hotpath
func (c *checker) recorded(seen []uint64, lanes []tick.Tick) bool {
	clear(seen)
	for i := range lanes {
		lanes[i] = -1
	}
	as := c.s.Assignments
	for _, j := range c.s.Dispatched {
		if uint(j) >= uint(len(as)) {
			return false
		}
		word, bit := &seen[j>>6], uint64(1)<<(uint(j)&63)
		if *word&bit != 0 {
			return false
		}
		*word |= bit
		a := as[j]
		if c.task(int(j), a) != feasible {
			return false
		}
		l := &lanes[a.Machine]
		if a.Start < *l {
			return false
		}
		*l = max(*l, a.End)
	}
	return true
}

// sorted is the check with the order derived from the schedule itself:
// every assignment's own checks in task order, then each machine's
// tasks in start order, compared neighbour to neighbour.
func (c *checker) sorted(vs *verifyScratch) error {
	s := c.s
	for j, a := range s.Assignments {
		if f := c.task(j, a); f != feasible {
			return c.reject(j, a, f)
		}
	}
	vs.ids, vs.off = s.inStartOrder(vs.ids, vs.off)
	as := s.Assignments
	for i := 0; i < s.M; i++ {
		ids := vs.ids[vs.off[i]:vs.off[i+1]]
		for k := 1; k < len(ids); k++ {
			if as[ids[k]].Start < as[ids[k-1]].End {
				return fmt.Errorf("%w: machine %d tasks %d and %d", ErrOverlap, i, ids[k-1], ids[k])
			}
		}
	}
	return nil
}

// inStartOrder groups the task IDs by machine, each machine's in start
// order — by start, then end, then ID — and returns them with the
// offsets: machine i's tasks are ids[off[i]:off[i+1]]. The end breaks a
// tie towards a task that takes no time, the only order in which it and
// a longer task sharing its start are disjoint neighbours. Verify's
// fallback and the renderers read this one order; ids and off are
// reused when large enough. Every machine must be in range.
func (s *Schedule) inStartOrder(ids []int32, off []int) ([]int32, []int) {
	as := s.Assignments
	ids, off = sized(&ids, len(as)), sized(&off, s.M+1)
	clear(off)
	for _, a := range as {
		off[a.Machine+1]++
	}
	for i := 1; i <= s.M; i++ {
		off[i] += off[i-1]
	}
	// A counting sort: placing task j advances its machine's offset to
	// the next machine's start, so shift the offsets back after.
	for j, a := range as {
		ids[off[a.Machine]] = int32(j)
		off[a.Machine]++
	}
	copy(off[1:], off[:s.M])
	off[0] = 0
	for i := 0; i < s.M; i++ {
		slices.SortFunc(ids[off[i]:off[i+1]], func(x, y int32) int {
			a, b := &as[x], &as[y]
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			if c := cmp.Compare(a.End, b.End); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	return ids, off
}

// verifyScratch pools the buffers VerifyDurations needs: the recorded
// walk's seen-bits and lanes, the sort's task IDs and machine offsets.
// Every buffer is overwritten before use, so pooling cannot affect
// results.
type verifyScratch struct {
	seen  []uint64
	lanes []tick.Tick
	ids   []int32
	off   []int
}

// sized returns *buf at length n, reallocating only on growth; the
// contents are whatever the last use left.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

var verifyPool = sync.Pool{New: func() any { return new(verifyScratch) }}

// contains reports whether x is in set. Every placer in the repository
// builds a set of consecutive machines (a singleton, a partition's
// group, the replicate-everywhere set), where x sits at index x−set[0]:
// one probe answers those. Any other set, and every miss, takes the
// scan, which assumes nothing about the set's order.
func contains(set []int, x int) bool {
	if len(set) > 0 {
		if k := x - set[0]; k >= 0 && k < len(set) && set[k] == x {
			return true
		}
	}
	for _, v := range set {
		if v == x {
			return true
		}
	}
	return false
}

// FromMapping builds a contiguous schedule from a task→machine map,
// executing each machine's tasks back to back in task-ID order using
// actual processing times, each converted to ticks by tick.FromSeconds
// as the engines convert them. It is the canonical way to materialize
// a static (no-choice) schedule. Task-ID order is then each machine's
// start order, and is what the schedule records as Dispatched.
func FromMapping(in *task.Instance, machineOf []int) (*Schedule, error) {
	if len(machineOf) != in.N() {
		return nil, fmt.Errorf("%w: mapping has %d entries for %d tasks",
			ErrShapeMismatch, len(machineOf), in.N())
	}
	s := New(in.N(), in.M)
	s.Dispatched = make([]int32, in.N())
	clock := make([]tick.Tick, in.M)
	for j, t := range in.Tasks {
		i := machineOf[j]
		if i < 0 || i >= in.M {
			return nil, fmt.Errorf("%w: task %d machine %d", ErrShapeMismatch, j, i)
		}
		d, err := tick.FromSeconds(t.Actual)
		if err != nil {
			return nil, fmt.Errorf("sched: task %d actual time: %w", j, err)
		}
		s.Assignments[j] = Assignment{Machine: i, Start: clock[i], End: clock[i] + d}
		s.Dispatched[j] = int32(j)
		clock[i] += d
	}
	return s, nil
}
