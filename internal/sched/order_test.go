package sched_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tick"
)

// Verify's two sources of order, tested from outside the package on
// schedules the batch engine produced, record and all: the record may
// change which path answers and nothing else.

var (
	verifyRecorded = obs.GetCounter("sched.verify_recorded")
	verifySorted   = obs.GetCounter("sched.verify_sorted")
)

// paths runs verify and reports how many calls each path answered.
func paths(verify func()) (recorded, sorted int64) {
	r0, s0 := verifyRecorded.Load(), verifySorted.Load()
	verify()
	return verifyRecorded.Load() - r0, verifySorted.Load() - s0
}

// pairedGroups puts task j on the two machines of group j mod m/2, so
// the run has m/2 shards and every task has machines outside its set.
func pairedGroups(n, m int) *placement.Placement {
	p := placement.New(n, m)
	for j := 0; j < n; j++ {
		g := j % (m / 2)
		p.Sets[j] = []int{2 * g, 2*g + 1}
	}
	return p
}

func engineSchedule(t testing.TB, in *task.Instance, p *placement.Placement, order []int) *sched.Schedule {
	t.Helper()
	res, err := sim.RunFlatSharded(in, p, order, sim.FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func clone(s *sched.Schedule) *sched.Schedule {
	return &sched.Schedule{M: s.M, Assignments: slices.Clone(s.Assignments), Dispatched: slices.Clone(s.Dispatched)}
}

// recordFaults are the ways a record can be wrong while the schedule it
// came with is untouched.
var recordFaults = []struct {
	name  string
	plant func(rec []int32) []int32
}{
	{"duplicated entry", func(rec []int32) []int32 { rec[len(rec)/2] = rec[0]; return rec }},
	{"truncated", func(rec []int32) []int32 { return rec[:len(rec)-1] }},
	{"reversed", func(rec []int32) []int32 { slices.Reverse(rec); return rec }},
	{"entry out of range", func(rec []int32) []int32 { rec[1] = int32(len(rec)); return rec }},
	{"negative entry", func(rec []int32) []int32 { rec[1] = -1; return rec }},
	{"absent", func([]int32) []int32 { return nil }},
}

func TestVerifyOnEngineScheduleWithPlantedFaults(t *testing.T) {
	const n, m = 240, 8
	src := rng.New(24)
	act := make([]float64, n)
	for j := range act {
		act[j] = src.Uniform(1, 9)
	}
	in, err := task.New(m, 1, act, act)
	if err != nil {
		t.Fatal(err)
	}
	p := pairedGroups(n, m)
	order := make([]int, n)
	for j := range order {
		order[j] = n - 1 - j
	}
	good := engineSchedule(t, in, p, order)

	if rec, srt := paths(func() {
		if err := good.Verify(in, p); err != nil {
			t.Fatal(err)
		}
	}); rec != 1 || srt != 0 {
		t.Fatalf("the engine's own record: %d recorded, %d sorted answers, want 1 and 0", rec, srt)
	}

	// A wrong record on a good schedule costs the sort and nothing else.
	for _, rf := range recordFaults {
		s := clone(good)
		s.Dispatched = rf.plant(s.Dispatched)
		if rec, srt := paths(func() {
			if err := s.Verify(in, p); err != nil {
				t.Errorf("record %s: %v", rf.name, err)
			}
		}); rec != 0 || srt != 1 {
			t.Errorf("record %s: %d recorded, %d sorted answers, want 0 and 1", rf.name, rec, srt)
		}
	}

	// Two neighbours of one machine, found through the record.
	first, second := -1, -1
	for _, j := range good.Dispatched {
		if good.Assignments[j].Machine == 3 {
			if first < 0 {
				first = int(j)
			} else {
				second = int(j)
				break
			}
		}
	}
	faults := []struct {
		name  string
		plant func(s *sched.Schedule)
		want  error
	}{
		{"two tasks of a machine swap their slots", func(s *sched.Schedule) {
			a, b := &s.Assignments[first], &s.Assignments[second]
			a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
		}, sched.ErrBadDuration},
		{"a task slides back over its neighbour", func(s *sched.Schedule) {
			a, b := s.Assignments[first], &s.Assignments[second]
			back := (a.End - a.Start) / 2
			b.Start, b.End = b.Start-back, b.End-back
		}, sched.ErrOverlap},
		{"a task moves outside its set", func(s *sched.Schedule) {
			a := &s.Assignments[first]
			a.Machine = (a.Machine + 2) % m
		}, sched.ErrOutsideReplica},
		{"a duration off by one tick", func(s *sched.Schedule) {
			s.Assignments[first].End++
		}, sched.ErrBadDuration},
		{"a machine out of range", func(s *sched.Schedule) {
			s.Assignments[first].Machine = m
		}, sched.ErrShapeMismatch},
		{"a start one tick below zero", func(s *sched.Schedule) {
			a := &s.Assignments[first]
			a.Start, a.End = -1, a.End-a.Start-1
		}, sched.ErrNegativeTime},
	}
	for _, f := range faults {
		s := clone(good)
		f.plant(s)
		bare := clone(s)
		bare.Dispatched = nil
		want := bare.Verify(in, p)
		if !errors.Is(want, f.want) {
			t.Errorf("%s: got %v, want %v", f.name, want, f.want)
			continue
		}
		// With the engine's record, and with each wrong one, the very
		// same error.
		records := [][]int32{s.Dispatched}
		for _, rf := range recordFaults {
			records = append(records, rf.plant(slices.Clone(s.Dispatched)))
		}
		for _, rec := range records {
			s.Dispatched = rec
			if got := s.Verify(in, p); got == nil || got.Error() != want.Error() {
				t.Errorf("%s: with a record %v, without %v", f.name, got, want)
			}
		}
	}

	// Swapped slots that keep each task's duration are a feasible
	// schedule the record no longer describes: accepted, by the sort.
	s := clone(good)
	a, b := &s.Assignments[first], &s.Assignments[second]
	da, db := a.End-a.Start, b.End-b.Start
	b.Start, b.End = a.Start, a.Start+db
	a.Start, a.End = b.End, b.End+da
	if a.End != good.Assignments[second].End {
		t.Fatalf("the swap moved the pair's end from %v to %v", good.Assignments[second].End, a.End)
	}
	if rec, srt := paths(func() {
		if err := s.Verify(in, p); err != nil {
			t.Errorf("reordered pair: %v", err)
		}
	}); rec != 0 || srt != 1 {
		t.Errorf("reordered pair: %d recorded, %d sorted answers, want 0 and 1", rec, srt)
	}
}

// A run with failures erases and re-offers lost tasks, so it hands out
// no record; a fetch-penalty run does, and its schedule verifies by it
// under the penalized durations.
func TestEngineRecordByRunKind(t *testing.T) {
	const n, m = 60, 4
	act := make([]float64, n)
	for j := range act {
		act[j] = float64(1 + j%5)
	}
	in, err := task.New(m, 1, act, act)
	if err != nil {
		t.Fatal(err)
	}
	p := pairedGroups(n, m)
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	var r sim.Runner
	res, err := r.RunSharded(in, p, order, sim.FlatOptions{Failures: []sim.Failure{{Machine: 1, Time: 7.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Dispatched) != 0 {
		t.Errorf("a run with failures recorded %d dispatches", len(res.Schedule.Dispatched))
	}
	if rec, srt := paths(func() {
		if err := res.Schedule.Verify(in, p); err != nil {
			t.Error(err)
		}
	}); rec != 0 || srt != 1 {
		t.Errorf("after failures: %d recorded, %d sorted answers, want 0 and 1", rec, srt)
	}

	// The same runner, next run: a record again.
	pinned := placement.New(n, m)
	for j := 0; j < n; j++ {
		pinned.Assign(j, 0)
	}
	res, err = r.RunSharded(in, pinned, order, sim.FlatOptions{FetchPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	penalized := func(j, i int) float64 {
		if i == 0 {
			return act[j]
		}
		return 2 * act[j]
	}
	if rec, srt := paths(func() {
		if err := res.Schedule.VerifyDurations(in, pinned, penalized); err != nil {
			t.Error(err)
		}
	}); rec != 1 || srt != 0 {
		t.Errorf("fetch penalty: %d recorded, %d sorted answers, want 1 and 0", rec, srt)
	}
}

// feasibleByAllPairs is Verify's specification without any order: the
// per-task conditions, then every pair of a machine's tasks.
func feasibleByAllPairs(in *task.Instance, p *placement.Placement, s *sched.Schedule) bool {
	for j, a := range s.Assignments {
		d, err := tick.FromSeconds(in.Tasks[j].Actual)
		if err != nil || a.Machine < 0 || a.Machine >= s.M || a.Start < 0 || a.End < a.Start ||
			a.End-a.Start != d || !slices.Contains(p.Sets[j], a.Machine) {
			return false
		}
		for _, b := range s.Assignments[:j] {
			if a.Machine == b.Machine && a.Start < b.End && b.Start < a.End {
				return false
			}
		}
	}
	return true
}

// FuzzVerifyOrder drives Verify with small engine schedules — tasks
// that take no time and tied starts included — then a fuzzed edit of
// the schedule and a fuzzed record:
//
//   - the engine's schedule is accepted by its own record, and accepted
//     without it;
//   - whatever the record holds, the answer (the error text included) is
//     the one given without a record;
//   - the answer is the all-pairs oracle's: every check is exact, so a
//     one-tick shift into a neighbour is an overlap, and one away from
//     it is not.
func FuzzVerifyOrder(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 2, 3, 0, 1, 2, 3, 9, 9})
	f.Add([]byte{9, 3, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 200, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 1, 0, 3, 0, 0, 1, 77, 2, 1, 0})
	f.Add([]byte{12, 4, 7, 7, 7, 7, 0, 0, 0, 0, 3, 3, 3, 3, 1, 5, 5, 2, 6, 6, 3, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, m := 1+next()%12, 1+next()%4
		// A duration of 1e-10 s rounds to no ticks at all: a task that
		// takes no time, starting where its successor does.
		lengths := []float64{1e-10, 1, 1, 2.5}
		act := make([]float64, n)
		p := placement.New(n, m)
		for j := range act {
			b := next()
			act[j] = lengths[b%4]
			set := make([]int, 0, m)
			for i := 0; i < m; i++ {
				if (b>>2)&(1<<i) != 0 {
					set = append(set, i)
				}
			}
			if len(set) == 0 {
				set = append(set, j%m)
			}
			p.Sets[j] = set
		}
		in, err := task.New(m, 1, act, act)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, n)
		for j := range order {
			order[j] = (j + n/2) % n
		}
		s := clone(engineSchedule(t, in, p, order))
		if err := s.Verify(in, p); err != nil {
			t.Fatalf("the engine's schedule, by its record %v: %v", s.Dispatched, err)
		}
		if !feasibleByAllPairs(in, p, s) {
			t.Fatalf("the oracle refuses the engine's schedule %+v", s.Assignments)
		}
		bare := &sched.Schedule{M: s.M, Assignments: s.Assignments}
		if err := bare.Verify(in, p); err != nil {
			t.Fatalf("the engine's schedule, record taken away: %v", err)
		}

		// Edit the schedule, then the record.
		for edits := next() % 4; edits > 0; edits-- {
			a, b := &s.Assignments[next()%n], &s.Assignments[next()%n]
			switch next() % 6 {
			case 0:
				a.Machine = next() % (m + 1)
			case 1:
				d := []tick.Tick{-tick.PerSecond, -1000, -1, 1, tick.PerSecond / 2, tick.PerSecond}[next()%6]
				a.Start, a.End = a.Start+d, a.End+d
			case 2:
				a.End += []tick.Tick{-tick.PerSecond, 1000, 1}[next()%3]
			case 3:
				a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
			case 4:
				a.Start, a.End = b.Start, b.Start+(a.End-a.Start)
			case 5:
				a.Start = []tick.Tick{-1, math.MinInt64, tick.Max}[next()%3]
			}
		}
		switch next() % 4 {
		case 1:
			i, k := next()%n, next()%n
			s.Dispatched[i], s.Dispatched[k] = s.Dispatched[k], s.Dispatched[i]
		case 2:
			s.Dispatched[next()%n] = int32(next()) - 3
		case 3:
			s.Dispatched = s.Dispatched[:next()%n]
		}

		got, want := s.Verify(in, p), bare.Verify(in, p)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("record %v: %v; no record: %v\n%+v", s.Dispatched, got, want, s.Assignments)
		}
		if (got == nil) != feasibleByAllPairs(in, p, s) {
			t.Fatalf("Verify says %v, the all-pairs oracle the opposite: %+v", got, s.Assignments)
		}
	})
}
