package sched

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// reflected is the marshal AppendJSON replaced: scheduleJSON through
// encoding/json.
func reflected(s *Schedule) ([]byte, error) {
	w := scheduleJSON{M: s.M, Machines: []int{}, Starts: []float64{}, Ends: []float64{}}
	for _, a := range s.Assignments {
		w.Machines, w.Starts, w.Ends = append(w.Machines, a.Machine), append(w.Starts, a.Start), append(w.Ends, a.End)
	}
	return json.Marshal(w)
}

// TestAppendJSONMatchesTheEncoder: the appender prints what the
// reflective marshal of scheduleJSON prints, and what it cannot print
// is the encoder's error, in the encoder's words.
func TestAppendJSONMatchesTheEncoder(t *testing.T) {
	for _, s := range []*Schedule{
		{},
		New(0, 4),
		{M: 2, Assignments: []Assignment{{0, 1, 0, 2.5}, {1, 0, 1e-7, 1e21}, {2, 1, 2.5, 123456.789}}},
		{M: 1, Assignments: []Assignment{{0, -1, math.Copysign(0, -1), 5e-324}}},
	} {
		want, err := reflected(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.AppendJSON([]byte("x")); err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendJSON wrote %s (%v), the encoder %s", got, err, want)
		}
		if got, err := json.Marshal(s); err != nil || string(got) != string(want) {
			t.Errorf("json.Marshal wrote %s (%v), want %s", got, err, want)
		}
	}
	for _, bad := range []*Schedule{
		{M: 1, Assignments: []Assignment{{0, 0, 0, 1}, {1, 0, math.NaN(), 2}}},
		{M: 1, Assignments: []Assignment{{0, 0, 0, math.Inf(1)}, {1, 0, math.NaN(), 2}}},
		{M: 1, Assignments: []Assignment{{0, 0, 0, 1}, {1, 0, 1, math.Inf(-1)}}},
	} {
		_, want := reflected(bad)
		if _, err := bad.AppendJSON(nil); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("AppendJSON: %v, the encoder: %v", err, want)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := inst(t, 2, 3, 1, 2)
	s, err := FromMapping(in, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != s.M || len(got.Assignments) != len(s.Assignments) {
		t.Fatalf("shape changed: %+v", got)
	}
	for j := range s.Assignments {
		if got.Assignments[j] != s.Assignments[j] {
			t.Fatalf("assignment %d changed: %+v vs %+v", j, got.Assignments[j], s.Assignments[j])
		}
	}
	if err := got.Verify(in, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"m":2,"machines":[0],"starts":[],"ends":[]}`)); err == nil {
		t.Fatal("inconsistent arrays accepted")
	}
}

func TestScheduleJSONRejectsCorruptAssignments(t *testing.T) {
	s := New(1, 1)
	s.Assignments[0] = Assignment{Task: 5} // wrong ID
	if _, err := s.MarshalJSON(); err == nil {
		t.Fatal("corrupt assignment serialized")
	}
}
