package sched

import (
	"errors"
	"math"
	"testing"

	"repro/internal/placement"
)

// A non-finite time used to pass every check: each comparison with NaN
// is false, and +Inf − +Inf is NaN, so neither the duration test nor
// the overlap test fired. Every case runs with and without a record, so
// both sources of order reject it the same way.
func TestVerifyRejectsNonFiniteAndReversedTimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name       string
		start, end float64
		want       error
	}{
		{"NaN start", nan, 2, ErrBadDuration},
		{"NaN end", 0, nan, ErrBadDuration},
		{"NaN both", nan, nan, ErrBadDuration},
		{"+Inf both", inf, inf, ErrBadDuration},
		{"+Inf end", 0, inf, ErrBadDuration},
		{"-Inf both", -inf, -inf, ErrNegativeTime},
		{"-Inf end", 0, -inf, ErrBadDuration},
		{"end before start", 4, 2, ErrBadDuration},
	}
	in := inst(t, 1, 2, 2)
	for _, tc := range cases {
		for _, record := range [][]int32{nil, {0, 1}, {1, 0}} {
			s := New(2, 1)
			s.Assignments[0] = Assignment{Task: 0, Machine: 0, Start: tc.start, End: tc.end}
			s.Assignments[1] = Assignment{Task: 1, Machine: 0, Start: 10, End: 12}
			s.Dispatched = record
			if err := s.Verify(in, nil); !errors.Is(err, tc.want) {
				t.Errorf("%s, record %v: got %v, want %v", tc.name, record, err, tc.want)
			}
		}
	}
}

// A task that takes no time may share its start with a longer one: the
// engine produces exactly that when a duration rounds to zero ticks.
// Sorted by (start, task) alone, the longer task came first whenever
// its ID was the lower and the pair read as an overlap.
func TestVerifyAcceptsZeroLengthTaskAtASharedStart(t *testing.T) {
	in := inst(t, 1, 3, 1e-10, 5)
	s := New(3, 1)
	s.Assignments[2] = Assignment{Task: 2, Machine: 0, Start: 0, End: 5}
	s.Assignments[1] = Assignment{Task: 1, Machine: 0, Start: 5, End: 5}
	s.Assignments[0] = Assignment{Task: 0, Machine: 0, Start: 5, End: 8}
	for _, record := range [][]int32{nil, {2, 1, 0}} {
		s.Dispatched = record
		if err := s.Verify(in, nil); err != nil {
			t.Errorf("record %v: %v", record, err)
		}
	}
	// Inside the longer task it is an overlap, whichever order is tried.
	s.Assignments[1] = Assignment{Task: 1, Machine: 0, Start: 6, End: 6}
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
