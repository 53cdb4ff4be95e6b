package sched

import (
	"errors"
	"math"
	"testing"

	"repro/internal/placement"
	"repro/internal/tick"
)

// sec is x seconds in ticks; it panics on a value without a tick
// representation.
func sec(x float64) tick.Tick {
	t, err := tick.FromSeconds(x)
	if err != nil {
		panic(err)
	}
	return t
}

// Times are ticks, so no time is NaN or infinite; what is left to
// reject is an expected duration that does not convert — a hook's NaN,
// ±Inf or out-of-range value — and an end before its start, the one
// that would wrap End−Start included. Every case runs with and without
// a record, so both sources of order reject it the same way.
func TestVerifyRejectsNonFiniteAndReversedTimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name       string
		start, end tick.Tick
		hook       float64 // task 0's expected seconds; 0 means its actual time
		want       error
	}{
		{"NaN expected", 0, sec(2), nan, ErrBadDuration},
		{"+Inf expected", 0, tick.Max, inf, ErrBadDuration},
		{"-Inf expected", 0, sec(2), -inf, ErrBadDuration},
		{"expected out of range", 0, tick.Max, 1e300, ErrBadDuration},
		{"end before start", sec(4), sec(2), 0, ErrBadDuration},
		{"end wraps below start", 1, math.MinInt64 + 1, 0, ErrBadDuration},
		{"negative start", -1, sec(2) - 1, 0, ErrNegativeTime},
	}
	in := inst(t, 1, 2, 2)
	for _, tc := range cases {
		dur := func(j, _ int) float64 {
			if j == 0 && tc.hook != 0 {
				return tc.hook
			}
			return in.Tasks[j].Actual
		}
		for _, record := range [][]int32{nil, {0, 1}, {1, 0}} {
			s := New(2, 1)
			s.Assignments[0] = Assignment{Machine: 0, Start: tc.start, End: tc.end}
			s.Assignments[1] = Assignment{Machine: 0, Start: sec(10), End: sec(12)}
			s.Dispatched = record
			if err := s.VerifyDurations(in, nil, dur); !errors.Is(err, tc.want) {
				t.Errorf("%s, record %v: got %v, want %v", tc.name, record, err, tc.want)
			}
		}
	}
}

// A task that takes no time may share its start with a longer one: the
// engine produces exactly that when a duration rounds to zero ticks.
// Sorted by (start, task) alone, the longer task would come first
// whenever its ID was the lower and the pair read as an overlap.
func TestVerifyAcceptsZeroLengthTaskAtASharedStart(t *testing.T) {
	in := inst(t, 1, 3, 1e-10, 5)
	s := New(3, 1)
	s.Assignments[2] = Assignment{Machine: 0, Start: sec(0), End: sec(5)}
	s.Assignments[1] = Assignment{Machine: 0, Start: sec(5), End: sec(5)}
	s.Assignments[0] = Assignment{Machine: 0, Start: sec(5), End: sec(8)}
	for _, record := range [][]int32{nil, {2, 1, 0}} {
		s.Dispatched = record
		if err := s.Verify(in, nil); err != nil {
			t.Errorf("record %v: %v", record, err)
		}
	}
	// Inside the longer task it is an overlap, whichever order is tried.
	s.Assignments[1] = Assignment{Machine: 0, Start: sec(6), End: sec(6)}
	for _, record := range [][]int32{nil, {2, 1, 0}, {2, 0, 1}} {
		s.Dispatched = record
		if err := s.Verify(in, nil); !errors.Is(err, ErrOverlap) {
			t.Errorf("record %v: got %v, want ErrOverlap", record, err)
		}
	}
}

// contains must agree with a plain scan on sets of every width and
// spacing, sorted or not: the probe is a shortcut to "yes", never a
// reason for "no".
func TestContainsMatchesScan(t *testing.T) {
	sets := [][]int{
		{}, {0}, {3}, {0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},        // dense from zero
		{4, 5, 6, 7, 8, 9, 10, 11, 12, 13},            // dense from a base
		{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20},       // strided
		{1, 2, 3, 5, 8, 13, 21, 34, 55, 89},           // irregular
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10},            // unsorted: off contract, still a set
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5},                // duplicates
		{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 100}, // a gap at the end
	}
	for _, set := range sets {
		for x := 0; x <= 101; x++ {
			want := false
			for _, v := range set {
				want = want || v == x
			}
			if got := contains(set, x); got != want {
				t.Errorf("contains(%v, %d) = %v", set, x, got)
			}
		}
	}
}

func TestResetAndDecodeDropTheRecord(t *testing.T) {
	in := inst(t, 2, 1, 2, 3)
	s, err := FromMapping(in, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dispatched) != 3 {
		t.Fatalf("FromMapping recorded %v", s.Dispatched)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(s.Dispatched) != 0 {
		t.Errorf("a decoded schedule kept the record %v", s.Dispatched)
	}
	s.Dispatched = []int32{0, 1, 2}
	s.Reset(3, 2)
	if len(s.Dispatched) != 0 {
		t.Errorf("Reset kept the record %v", s.Dispatched)
	}
	// The replica check still holds on the walk: a record does not excuse
	// a task outside its set.
	p := placement.New(3, 2)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 0)
	s, _ = FromMapping(in, []int{0, 1, 0})
	if err := s.Verify(in, p); !errors.Is(err, ErrOutsideReplica) {
		t.Errorf("got %v, want ErrOutsideReplica", err)
	}
}
