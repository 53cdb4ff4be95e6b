// Package sim implements the paper's phase-2 execution model: m
// identical machines executing tasks online and semi-clairvoyantly.
// Phase 2 is List Scheduling from a fixed priority order over the
// replica sets of phase 1: an idle machine takes the highest-priority
// unstarted task it holds a replica of, sees only estimated processing
// times, and learns a task's actual time when the task completes; the
// clock advances with the actual times. "The first machine that becomes
// available" is deterministic — events are ordered by (time, machine
// index), ties toward the lower index, the usual List Scheduling
// convention.
//
// There is one simulator, Runner (flat.go), with two entry points over
// one shard decomposition (shard.go), one set of pending structures
// (rankset.go), one general event loop (spans.go) and fixed-point time
// (internal/tick):
//
//   - RunSharded: the batch model, every task released at time zero.
//     FlatOptions attaches what a caller may vary — fail-stop crashes
//     with loss and retry, remote execution at a fetch penalty — as
//     values on the one event loop, and TraceOf reads the execution
//     trace off the schedule it returns;
//   - RunOpenSharded (flatopen.go holds what only it needs): the open
//     system, tasks arriving over time, response times instead of
//     makespan, replicas racing under a CancelPolicy. Batch is its
//     corner with every arrival at zero and CancelOnStart
//     (TestFlatOpenMatchesBatch).
//
// This file holds what both share: result and option types and the
// replica-set predicates. The engines are checked against the oracle in
// oracle_test.go, a deliberately naive float-time statement of the same
// semantics (a clock scan for the batch model, the fail-stop rules, an
// open loop with both cancel policies): the differential suites hold
// them to it byte for byte on inputs that are exact in ticks and within
// the quantization bound elsewhere.
//
// # Information model under duration overrides
//
// The open engine's Duration hook and the batch engine's FetchPenalty
// decouple what a machine spends executing a task from the task's
// processing time p_j: remote execution charges a fetch-penalized
// duration while p_j stays what it was. The executed duration drives
// the clock and the recorded Assignment and nothing else — list
// scheduling decides from the priority order alone, so no inflated
// value can reach a decision the guarantees are proved for. Such
// schedules verify against the same duration function via
// Schedule.VerifyDurations; plain Verify expects raw actual times and
// rejects them.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/tick"
)

// Hot-loop metrics, accumulated locally per run and flushed once so
// the per-event cost is a plain increment (see internal/obs).
var (
	simEventsPopped   = obs.GetCounter("sim.events_popped")
	openEventsPopped  = obs.GetCounter("sim.open_events_popped")
	openCancellations = obs.GetCounter("sim.open_cancelled_replicas")
)

// Event is one entry of an execution trace.
type Event struct {
	// Time of the event, in the schedule's ticks.
	Time tick.Tick
	// Machine involved.
	Machine int
	// Task involved.
	Task int
	// Kind is "start" or "finish".
	Kind string
}

// Result bundles the outcome of a simulation.
type Result struct {
	// Schedule is the executed schedule.
	Schedule *sched.Schedule
}

// TraceOf derives the execution trace of a batch run from its
// schedule: every task's start and finish, in time order. The schedule
// already holds all a trace says — each task's machine, start and end,
// and in Dispatched the order the engine started the tasks in — so the
// trace is built after the run instead of recorded during it. A
// schedule with no dispatch record (a fail-stop or open run's, or one
// decoded from JSON) yields no events.
func TraceOf(s *sched.Schedule) []Event {
	if len(s.Dispatched) == 0 {
		return nil
	}
	tr := make([]Event, 2*len(s.Dispatched))
	for p, j := range s.Dispatched {
		a := s.Assignments[j]
		tr[2*p] = Event{Time: a.Start, Machine: a.Machine, Task: int(j), Kind: "start"}
		tr[2*p+1] = Event{Time: a.End, Machine: a.Machine, Task: int(j), Kind: "finish"}
	}
	sortTrace(tr)
	return tr
}

// sortTrace orders events by time, finishes before starts at equal
// times (a machine finishes a task before grabbing the next), then by
// machine. TraceOf lays the events out in dispatch order, each task's
// start before its finish, so traces are near-sorted on the time key —
// but "near-sorted" is not a license for insertion sort: a trace with
// many equal-time finishes (unit tasks on many machines) puts every
// finish O(n) positions away from its slot and degrades insertion sort
// to O(n²). SliceStable is O(n log² n) worst-case and deterministic:
// the events it leaves tied share time, kind and machine, and keep one
// machine's dispatch order.
func sortTrace(tr []Event) {
	sort.SliceStable(tr, func(a, b int) bool { return traceLess(tr[a], tr[b]) })
}

func traceLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind == "finish"
	}
	return a.Machine < b.Machine
}

// Failure describes a fail-stop machine crash: the machine accepts no
// work at or after Time, and a task running across Time is lost and
// must be re-executed from scratch on another machine holding a
// replica of its data. This models the paper's Hadoop motivation —
// "most Hadoop systems replicate the data for the purpose of
// tolerating hardware faults" — inside the same two-phase model: a
// crash is survivable only if every affected task has a replica
// elsewhere.
type Failure struct {
	// Machine is the crashing machine.
	Machine int
	// Time is the crash instant.
	Time float64
}

// ErrUnsurvivable reports that some task's data lived only on crashed
// machines, so the workload cannot complete.
var ErrUnsurvivable = errors.New("sim: task data lost in crash; no surviving replica")

// machineEligible reports whether machine holds a replica of task j.
func machineEligible(p *placement.Placement, j, machine int) bool {
	for _, i := range p.Sets[j] {
		if i == machine {
			return true
		}
	}
	return false
}

// survivable reports whether task j has a replica on a live machine.
func survivable(p *placement.Placement, j int, dead []bool) bool {
	for _, i := range p.Sets[j] {
		if !dead[i] {
			return true
		}
	}
	return false
}

// CancelPolicy selects how redundant replicas of a task are retired in
// the open system — the setting of Wang/Joshi/Wornell (arXiv:1404.1328)
// and Sun/Koksal/Shroff (arXiv:1603.07322) applied to the paper's
// phase-1 placements, where whether replication helps or hurts the tail
// depends on the cancellation policy and the service-time shape.
type CancelPolicy uint8

const (
	// CancelOnStart cancels a task's queued siblings the moment one
	// replica starts executing: at most one copy of a task ever runs,
	// replication only widens the choice of which machine runs it.
	CancelOnStart CancelPolicy = iota
	// CancelOnCompletion lets every machine in the replica set start
	// its own copy as it frees up; the first completion wins and the
	// other running copies are cancelled, each costing CancelCost extra
	// machine time. This trades wasted capacity for tail latency — the
	// regime studied by the cited open-system papers.
	CancelOnCompletion
)

// String returns the policy's experiment-output name.
func (p CancelPolicy) String() string {
	switch p {
	case CancelOnStart:
		return "cancel-on-start"
	case CancelOnCompletion:
		return "cancel-on-completion"
	default:
		return fmt.Sprintf("CancelPolicy(%d)", uint8(p))
	}
}

// OpenOptions configures an open-system run.
type OpenOptions struct {
	// Policy selects the replica cancellation policy.
	Policy CancelPolicy
	// CancelCost is the machine-time penalty paid by each machine whose
	// running replica is cancelled (it becomes idle at cancel time +
	// CancelCost). Must be non-negative and finite. Only
	// CancelOnCompletion incurs it: CancelOnStart never cancels a
	// running replica.
	CancelCost float64
	// Duration, when non-nil, overrides the executed duration of a
	// replica of a task on a machine; the default is the task's actual
	// processing time. Its value is how long the machine is busy (clock
	// advance, recorded Assignment and response) and nothing else. It
	// must be deterministic, finite and non-negative; a value without a
	// tick representation fails the run. Under CancelOnCompletion it is
	// called once per started replica, and per-(task,machine) variation
	// is what makes racing replicas meaningful — identical durations
	// make the extra copies pure waste.
	Duration func(taskID, machine int) float64
}

// OpenResult bundles the outcome of an open-system run. A Runner owns
// the result it returns (valid until its next call); the package-level
// entry points return caller-owned state.
type OpenResult struct {
	// Schedule records the winning replica of every task (the copy
	// whose completion defined the task's response time). Cancelled
	// replicas do not appear; their cost shows up in WastedTime.
	Schedule *sched.Schedule
	// Responses is indexed by task ID: completion time − arrival time.
	Responses []float64
	// CancelledReplicas counts replica executions that were cancelled
	// mid-run (always 0 under CancelOnStart).
	CancelledReplicas int
	// WastedTime is the machine time burned on cancelled replicas,
	// including the per-cancellation CancelCost.
	WastedTime float64
	// End is the time the system drains: the last instant any machine
	// is busy (including cancellation penalties).
	End float64
}
