package sched

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/task"
	"repro/internal/tick"
)

// reflected is the marshal AppendJSON replaced: scheduleJSON through
// encoding/json.
func reflected(s *Schedule) ([]byte, error) {
	w := scheduleJSON{M: s.M, Machines: []int{}, Starts: []float64{}, Ends: []float64{}}
	for _, a := range s.Assignments {
		w.Machines = append(w.Machines, a.Machine)
		w.Starts, w.Ends = append(w.Starts, a.Start.Seconds()), append(w.Ends, a.End.Seconds())
	}
	return json.Marshal(w)
}

// TestAppendJSONMatchesTheEncoder: the appender prints what the
// reflective marshal of scheduleJSON prints, the exponent form of a
// tick and the ends of the tick range included.
func TestAppendJSONMatchesTheEncoder(t *testing.T) {
	for _, s := range []*Schedule{
		{},
		New(0, 4),
		{M: 2, Assignments: []Assignment{{1, 0, 2_500_000_000}, {0, 100, 1 << 51}, {1, 2_500_000_000, 123456_789_000_000}}},
		{M: 1, Assignments: []Assignment{{-1, 0, 1}, {0, -1, tick.Max}, {0, -tick.Max, 999}}},
	} {
		want, err := reflected(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Errorf("AppendJSON wrote %s, the encoder %s", got, want)
		}
		if got, err := json.Marshal(s); err != nil || string(got) != string(want) {
			t.Errorf("json.Marshal wrote %s (%v), want %s", got, err, want)
		}
	}
}

// TestAppendTickMatchesAppendFloat holds appendTick to
// task.AppendFloat(t.Seconds()) at the edges of its integer path (999,
// 1000, 10^15−1, 10^15), at every power of ten and its neighbours, and
// at random ticks of every length in between.
func TestAppendTickMatchesAppendFloat(t *testing.T) {
	ticks := []tick.Tick{0, 1, -1, 999, 1000, 1001, 1e15 - 1, 1e15, 1e15 + 1, 1 << 53, tick.Max, -tick.Max}
	for p := tick.Tick(1); p <= 1e18; p *= 10 {
		ticks = append(ticks, p-1, p, p+1, 5*p, 3*p+p/2)
	}
	src := rand.New(rand.NewPCG(46, 2))
	for range 200_000 {
		ticks = append(ticks, tick.Tick(src.Int64N(1<<(1+src.IntN(50)))))
	}
	for _, tk := range ticks {
		want, _ := task.AppendFloat([]byte("x"), tk.Seconds())
		if got := appendTick([]byte("x"), tk); string(got) != string(want) {
			t.Fatalf("appendTick(%d) = %s, AppendFloat(Seconds) prints %s", tk, got, want)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := inst(t, 2, 3, 1, 2)
	s, err := FromMapping(in, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
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

// A time the tick range cannot hold is refused at decode, with
// tick.FromSeconds's error; JSON itself has no NaN or infinity.
func TestScheduleJSONRejectsGarbage(t *testing.T) {
	for body, want := range map[string]error{
		`{`: nil,
		`{"m":2,"machines":[0],"starts":[],"ends":[]}`:        nil,
		`{"m":1,"machines":[0],"starts":[0],"ends":[9.3e9]}`:  tick.ErrOverflow,
		`{"m":1,"machines":[0],"starts":[-1e300],"ends":[1]}`: tick.ErrOverflow,
		`{"m":1,"machines":[0],"starts":[NaN],"ends":[1]}`:    nil,
		`{"m":1,"machines":[0],"starts":[0],"ends":[1e999]}`:  nil,
	} {
		var s Schedule
		err := json.Unmarshal([]byte(body), &s)
		if err == nil || want != nil && !errors.Is(err, want) {
			t.Errorf("%s: got %v, want an error (%v)", body, err, want)
		}
	}
}

// FuzzScheduleJSON holds the decode boundary:
//
//   - every schedule of ticks below 2^51 (about 26 simulated days) comes
//     back exactly from the seconds AppendJSON prints;
//   - that body with one time beyond the tick range, or one array a
//     number short, is an error at decode, and so is a number JSON
//     cannot carry;
//   - whatever the fuzzer's own bytes decode to, below 2^51 ticks,
//     prints and decodes again to itself.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte(`{"m":2,"machines":[1,0],"starts":[0,1e-9],"ends":[2.5,1234567.000000001]}`))
	f.Add([]byte(`{"m":1,"machines":[0],"starts":[0],"ends":[9.3e9]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if json.Unmarshal(data, &s) == nil && below51(s.Assignments) {
			var again Schedule
			if err := json.Unmarshal(s.AppendJSON(nil), &again); err != nil {
				t.Fatalf("%s decoded, and its re-encoding does not: %v", data, err)
			}
			if again.M != s.M || !slices.Equal(again.Assignments, s.Assignments) {
				t.Fatalf("%s decoded to %+v, its re-encoding to %+v", data, s.Assignments, again.Assignments)
			}
		}

		// The same bytes as a schedule: a machine byte and two ticks per
		// task, masked below 2^51.
		if len(data) == 0 {
			return
		}
		s = Schedule{M: 1 + int(data[0]%8)}
		for data = data[1:]; len(data) >= 17; data = data[17:] {
			s.Assignments = append(s.Assignments, Assignment{
				Machine: int(data[0]),
				Start:   tick.Tick(binary.LittleEndian.Uint64(data[1:]) & (1<<51 - 1)),
				End:     tick.Tick(binary.LittleEndian.Uint64(data[9:]) & (1<<51 - 1)),
			})
		}
		body := s.AppendJSON(nil)
		var got Schedule
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got.M != s.M || !slices.Equal(got.Assignments, s.Assignments) {
			t.Fatalf("%s decoded to %+v, want %+v", body, got.Assignments, s.Assignments)
		}
		if len(s.Assignments) == 0 {
			return
		}
		k := int(s.Assignments[0].End) % len(s.Assignments) // where the garbage goes
		for _, plant := range []func(w *scheduleJSON){
			func(w *scheduleJSON) { w.Ends[k] = 9.3e9 },
			func(w *scheduleJSON) { w.Starts[k] = -1e300 },
			func(w *scheduleJSON) { w.Machines = w.Machines[1:] },
			func(w *scheduleJSON) { w.Ends = w.Ends[:k] },
		} {
			var w scheduleJSON
			if err := json.Unmarshal(body, &w); err != nil {
				t.Fatal(err)
			}
			plant(&w)
			bad, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(bad, &got); err == nil {
				t.Fatalf("%s decoded", bad)
			}
		}
		for _, token := range []string{"NaN", "Infinity", "-Inf", "1e400"} {
			bad := strings.Replace(string(body), `"starts":[`, `"starts":[`+token+`,`, 1)
			if err := json.Unmarshal([]byte(bad), &got); err == nil {
				t.Fatalf("%s decoded", bad)
			}
		}
	})
}

// below51 reports whether every time is in [0, 2^51) ticks.
func below51(as []Assignment) bool {
	for _, a := range as {
		if uint64(a.Start) >= 1<<51 || uint64(a.End) >= 1<<51 {
			return false
		}
	}
	return true
}
