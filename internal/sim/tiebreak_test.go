package sim

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/tick"
)

// TestEventQueueTiedPopOrder audits the oracle's event order: its
// "queue" is the earliest scan over one pending time per machine, and
// with many exact time ties across machines the scan must hand the
// machines out in the total (time, machine) order the engines' event
// structures are held to below.
func TestEventQueueTiedPopOrder(t *testing.T) {
	r := rng.New(99)
	at := make([]float64, 16)
	on := make([]bool, len(at))
	type event struct {
		time    float64
		machine int
	}
	var want []event
	for i := range at {
		at[i], on[i] = float64(r.Intn(4)), true
		want = append(want, event{at[i], i})
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].time != want[b].time {
			return want[a].time < want[b].time
		}
		return want[a].machine < want[b].machine
	})
	for k, w := range want {
		i := earliest(at, on)
		if i != w.machine {
			t.Fatalf("pick %d = machine %d, want %+v", k, i, w)
		}
		on[i] = false
	}
	if i := earliest(at, on); i != -1 {
		t.Fatalf("empty scan returned machine %d", i)
	}
}

// TestTickHeapTiedPopOrder audits the batch engine's event tree
// (loadheap.Tree over ticks, leaves in machine order) the way
// replayGeneral uses it, in fail-stop mode too: 24 machines whose ticks
// tie in blocks (int64 equality, no float fuzz), set in shuffled order, must
// come out in the total (tick, machine) order as each winner retires
// to tick.Max; and two retired machines re-set into the block still
// pending, as a dormant machine is woken, must take their places in
// that order too. Per-machine keys are unique in real runs (one pending
// event per machine), so this total order is the full determinism
// claim; a match that let the right child win a tie would reorder the
// equal-tick blocks and fail here.
func TestTickHeapTiedPopOrder(t *testing.T) {
	r := rng.New(77)
	const m = 24
	pending := make([]mEvent, m)
	for machine := range pending {
		pending[machine] = mEvent{t: tick.Tick(r.Intn(3)) * tick.PerSecond, m: int32(machine)}
	}
	shuffled := append([]mEvent(nil), pending...)
	for i := len(shuffled) - 1; i > 0; i-- {
		k := r.Intn(i + 1)
		shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
	}
	var tree loadheap.Tree[tick.Tick]
	tree.Reset(m)
	for _, ev := range shuffled {
		tree.Set(int(ev.m), ev.t)
	}
	// popAll takes winners until the tree is drained, retiring each, and
	// requires them in mLess order of want.
	popAll := func(phase string, want []mEvent) []mEvent {
		t.Helper()
		sort.Slice(want, func(a, b int) bool { return mLess(want[a], want[b]) })
		for i, w := range want {
			got := mEvent{t: tree.MinLoad(), m: int32(tree.MinID())}
			if got != w {
				t.Fatalf("%s: pop %d = %+v, want %+v", phase, i, got, w)
			}
			tree.Set(tree.MinID(), tick.Max)
		}
		if tree.MinLoad() != tick.Max {
			t.Fatalf("%s: drained tree still names machine %d at %d", phase, tree.MinID(), tree.MinLoad())
		}
		return want
	}
	popped := popAll("shuffled", append([]mEvent(nil), pending...))

	// Re-set the first and last machine out, and one from the middle, at
	// the tick of the middle block, with half the others back as well.
	mid := popped[m/2].t
	var again []mEvent
	for _, ev := range []mEvent{popped[m-1], popped[0], popped[m/2]} {
		again = append(again, mEvent{t: mid, m: ev.m})
	}
	for machine := int32(0); machine < m; machine += 2 {
		if machine != popped[m-1].m && machine != popped[0].m && machine != popped[m/2].m {
			again = append(again, pending[machine])
		}
	}
	for _, ev := range again {
		tree.Set(int(ev.m), ev.t)
	}
	popAll("re-set", again)
}

// TestFailureCrashOrderIndependentOfInput pins the crash tie-break:
// two same-instant crashes handed over in either caller order must
// yield the same outcome, in the oracle and in the engine — a
// Time-only sort would let the caller's slice order leak into which
// machine died first, and with it which ErrUnsurvivable a doomed run
// reported.
func TestFailureCrashOrderIndependentOfInput(t *testing.T) {
	in := inst(t, 4, 5, 5, 5, 5, 1, 1)
	p := placement.New(6, 4)
	p.Sets[0] = []int{0, 1}
	p.Sets[1] = []int{0, 1}
	p.Sets[2] = []int{2, 3}
	p.Sets[3] = []int{2, 3}
	p.Sets[4] = []int{0, 1}
	p.Sets[5] = []int{2, 3}
	order := identityOrder(6)

	// Both group {0,1} and group {2,3} fully die at t=2: doomed either
	// way, and the reported task/machine must not depend on input order.
	fwd := []Failure{{Machine: 0, Time: 2}, {Machine: 1, Time: 2}, {Machine: 2, Time: 2}, {Machine: 3, Time: 2}}
	rev := []Failure{{Machine: 3, Time: 2}, {Machine: 2, Time: 2}, {Machine: 1, Time: 2}, {Machine: 0, Time: 2}}
	_, errFwd := oracleRunFailures(in, p, order, fwd)
	_, errRev := oracleRunFailures(in, p, order, rev)
	if errFwd == nil || errRev == nil {
		t.Fatalf("expected unsurvivable errors, got %v / %v", errFwd, errRev)
	}
	if errFwd.Error() != errRev.Error() {
		t.Fatalf("crash input order leaked into result: %q vs %q", errFwd, errRev)
	}

	// Survivable same-instant ties: schedules must match exactly too,
	// in the oracle and in the sharded engine.
	sfwd := []Failure{{Machine: 1, Time: 2}, {Machine: 3, Time: 2}}
	srev := []Failure{{Machine: 3, Time: 2}, {Machine: 1, Time: 2}}
	wantSched, err := oracleRunFailures(in, p, order, sfwd)
	if err != nil {
		t.Fatalf("survivable fwd: %v", err)
	}
	gotSched, err := oracleRunFailures(in, p, order, srev)
	if err != nil {
		t.Fatalf("survivable rev: %v", err)
	}
	if !reflect.DeepEqual(gotSched.Assignments, wantSched.Assignments) {
		t.Fatal("oracle schedule depends on crash input order")
	}
	for _, fs := range [][]Failure{sfwd, srev} {
		res, err := RunFlatSharded(in, p, order, FlatOptions{Failures: fs})
		if err != nil {
			t.Fatalf("flat: %v", err)
		}
		if !reflect.DeepEqual(res.Schedule.Assignments, wantSched.Assignments) {
			t.Fatalf("flat: schedule depends on crash input order")
		}
	}
}
