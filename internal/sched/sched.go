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
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/task"
)

// Assignment records one executed task.
type Assignment struct {
	// Task is the task ID.
	Task int
	// Machine is the machine that executed the task.
	Machine int
	// Start is the time execution began.
	Start float64
	// End is the completion time; End-Start is the actual processing
	// time p_j.
	End float64
}

// Schedule is an executed phase-2 schedule.
type Schedule struct {
	// M is the machine count.
	M int
	// Assignments holds one entry per task, indexed by task ID.
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

// Makespan returns max over machines of the last completion time,
// which for contiguous schedules equals max_i Σ_{j ∈ E_i} p_j.
func (s *Schedule) Makespan() float64 {
	max := 0.0
	for _, a := range s.Assignments {
		if a.End > max {
			max = a.End
		}
	}
	return max
}

// Loads returns per-machine total actual processing time.
func (s *Schedule) Loads() []float64 {
	loads := make([]float64, s.M)
	for _, a := range s.Assignments {
		loads[a.Machine] += a.End - a.Start
	}
	return loads
}

// MachineOf returns the executing machine of each task.
func (s *Schedule) MachineOf() []int {
	out := make([]int, len(s.Assignments))
	for j, a := range s.Assignments {
		out[j] = a.Machine
	}
	return out
}

// Imbalance returns C_max · m / Σp_j − 1: zero for a perfectly
// balanced schedule, growing with the gap between the longest machine
// and the average.
func (s *Schedule) Imbalance() float64 {
	total := 0.0
	for _, a := range s.Assignments {
		total += a.End - a.Start
	}
	if total == 0 {
		return 0
	}
	return s.Makespan()*float64(s.M)/total - 1
}

// Verify checks that the schedule is a feasible execution of the
// instance under the placement:
//
//   - one assignment per task, machines in range, starts ≥ 0, times
//     finite;
//   - each duration equals the task's actual processing time;
//   - tasks on one machine do not overlap in time;
//   - every task runs on a machine in its replica set (when p != nil).
func (s *Schedule) Verify(in *task.Instance, p *placement.Placement) error {
	return s.VerifyDurations(in, p, nil)
}

// VerifyDurations is Verify with a custom expected-duration function,
// for schedules executed under a duration model other than the plain
// actual times (e.g. remote execution with a fetch penalty). A nil
// dur means the task's actual time on any machine. When dur is
// non-nil the replica-set check is skipped for tasks whose machine is
// outside M_j — running remotely is the point of such models — unless
// p is nil anyway.
//
// The overlap check wants each machine's tasks in start order, and
// there are two sources of that order. A schedule carrying a dispatch
// record (Dispatched) is walked in the recorded order once, every check
// fused into the walk, and a clean walk accepts. Otherwise — no record,
// or the walk met anything it did not like in the record or in the
// schedule — the order is derived by sorting each machine's assignments
// and the checks run again; only that run rejects, so the record can
// change how fast an answer comes and never which answer.
//
// The sort orders a machine's tasks by start, then end, then task. The
// end key is newer than the other two and changes one verdict: a
// zero-length task sharing its start with a longer one ([5,5] beside
// [5,8], which the engine emits when a duration rounds to zero ticks)
// used to be ErrOverlap whenever the longer task had the lower ID, and
// is accepted.
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

// tol is Verify's tolerance on a time, relative above one second.
const tol = 1e-9

// startsBefore reports whether a task starting at start would begin
// while one ending at end is still running.
func startsBefore(start, end float64) bool { return start < end-tol*max(1, end) }

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
	wrongSlot
	badMachine
	negativeStart
	nonFinite
	badDuration
	outsideReplica
)

// want is the duration task j should have run for on machine i.
func (c *checker) want(j, i int) float64 {
	if c.dur != nil {
		return c.dur(j, i)
	}
	return c.in.Tasks[j].Actual
}

// task runs the checks that concern assignment a of slot j alone and
// names the first that fails; reject words it.
func (c *checker) task(j int, a Assignment) fault {
	switch {
	case a.Task != j:
		return wrongSlot
	case a.Machine < 0 || a.Machine >= c.s.M:
		return badMachine
	case a.Start < -tol:
		return negativeStart
	case a.Start-a.Start != 0 || a.End-a.End != 0:
		// NaN or ±Inf: every comparison with NaN is false and Inf − Inf
		// is NaN, so such a time would pass each test that follows.
		return nonFinite
	}
	if want := c.want(j, a.Machine); math.Abs(a.End-a.Start-want) > tol*max(1, want) {
		return badDuration
	}
	if c.p != nil && c.dur == nil && !contains(c.p.Sets[j], a.Machine) {
		return outsideReplica
	}
	return feasible
}

func (c *checker) reject(j int, a Assignment, f fault) error {
	switch f {
	case wrongSlot:
		return fmt.Errorf("%w: assignment %d has task %d", ErrShapeMismatch, j, a.Task)
	case badMachine:
		return fmt.Errorf("%w: task %d machine %d", ErrShapeMismatch, j, a.Machine)
	case negativeStart:
		return fmt.Errorf("%w: task %d starts at %v", ErrNegativeTime, j, a.Start)
	case nonFinite:
		return fmt.Errorf("%w: task %d runs from %v to %v", ErrBadDuration, j, a.Start, a.End)
	case badDuration:
		return fmt.Errorf("%w: task %d ran %v, expected %v",
			ErrBadDuration, j, a.End-a.Start, c.want(j, a.Machine))
	default:
		return fmt.Errorf("%w: task %d on machine %d, replicas %v",
			ErrOutsideReplica, j, a.Machine, c.p.Sets[j])
	}
}

// lane is one machine's state during the recorded walk: the start of
// the last task met on it and the latest end of any.
type lane struct{ start, end float64 }

// recorded walks the dispatch record and reports whether it proves the
// schedule feasible: the record names every task exactly once, every
// assignment passes its own checks, and on each machine no task starts
// before the one recorded ahead of it started, nor before any recorded
// ahead of it has ended. The second holds for every pair of a machine's
// tasks whatever order they are met in; the first makes the recorded
// order the sorted one (up to ties the sort breaks towards the shorter
// task, which cannot turn an accept into a reject), so a true answer
// here is the answer sorted would give. seen holds a bit per task and
// lanes an entry per machine; both are overwritten.
//
//perf:hotpath
func (c *checker) recorded(seen []uint64, lanes []lane) bool {
	clear(seen)
	for i := range lanes {
		lanes[i] = lane{math.Inf(-1), math.Inf(-1)}
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
		if a.Start < l.start || startsBefore(a.Start, l.end) {
			return false
		}
		l.start, l.end = a.Start, max(l.end, a.End)
	}
	return true
}

// sorted is the check with the order derived from the schedule itself:
// every assignment's own checks in task order, then each machine's
// assignments sorted by start and compared neighbour to neighbour.
func (c *checker) sorted(vs *verifyScratch) error {
	s := c.s
	counts := sized(&vs.counts, s.M+1)
	clear(counts)
	for j, a := range s.Assignments {
		if f := c.task(j, a); f != feasible {
			return c.reject(j, a, f)
		}
		counts[a.Machine+1]++
	}
	// Group assignments by machine with a counting sort into one pooled
	// buffer, then sort and check each contiguous machine segment.
	for i := 1; i <= s.M; i++ {
		counts[i] += counts[i-1]
	}
	grouped := sized(&vs.grouped, len(s.Assignments))
	next := sized(&vs.next, s.M)
	copy(next, counts[:s.M])
	for _, a := range s.Assignments {
		grouped[next[a.Machine]] = a
		next[a.Machine]++
	}
	for i := 0; i < s.M; i++ {
		as := grouped[counts[i]:counts[i+1]]
		slices.SortFunc(as, byStart)
		for idx := 1; idx < len(as); idx++ {
			if startsBefore(as[idx].Start, as[idx-1].End) {
				return fmt.Errorf("%w: machine %d tasks %d and %d",
					ErrOverlap, i, as[idx-1].Task, as[idx].Task)
			}
		}
	}
	return nil
}

// byStart orders one machine's assignments by start, then end, then
// task. The end breaks a tie towards the task that takes no time: it
// and a longer task may share a start, and only in that order do
// neighbours not overlap.
func byStart(a, b Assignment) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	return a.Task - b.Task
}

// verifyScratch pools the buffers VerifyDurations needs: the recorded
// walk's seen-bits and lanes, the sort's grouped copy of the
// assignments and per-machine counters. Every buffer is overwritten
// before use, so pooling cannot affect results.
type verifyScratch struct {
	seen         []uint64
	lanes        []lane
	grouped      []Assignment
	counts, next []int
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
// actual processing times. It is the canonical way to materialize a
// static (no-choice) schedule. Task-ID order is then each machine's
// start order, and is what the schedule records as Dispatched.
func FromMapping(in *task.Instance, machineOf []int) (*Schedule, error) {
	if len(machineOf) != in.N() {
		return nil, fmt.Errorf("%w: mapping has %d entries for %d tasks",
			ErrShapeMismatch, len(machineOf), in.N())
	}
	s := New(in.N(), in.M)
	s.Dispatched = make([]int32, in.N())
	clock := make([]float64, in.M)
	for j, t := range in.Tasks {
		i := machineOf[j]
		if i < 0 || i >= in.M {
			return nil, fmt.Errorf("%w: task %d machine %d", ErrShapeMismatch, j, i)
		}
		s.Assignments[j] = Assignment{Task: j, Machine: i, Start: clock[i], End: clock[i] + t.Actual}
		s.Dispatched[j] = int32(j)
		clock[i] += t.Actual
	}
	return s, nil
}
