package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/task"
)

// scheduleJSON is the wire form of a Schedule: parallel arrays keyed
// by task ID, compact for large schedules and easy to load from
// plotting scripts. UnmarshalJSON decodes through it, AppendJSON
// writes it.
type scheduleJSON struct {
	M        int       `json:"m"`
	Machines []int     `json:"machines"`
	Starts   []float64 `json:"starts"`
	Ends     []float64 `json:"ends"`
}

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// AppendJSON appends the schedule exactly as encoding/json marshals
// scheduleJSON, without reflection. The two things it cannot print are
// errors, the encoder's own: an assignment out of its slot, and a start
// or end that is not finite.
func (s *Schedule) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(s.M), 10)
	dst, bad := s.appendColumns(dst)
	if bad < 0 {
		return dst, nil
	}
	a := s.Assignments[bad]
	if a.Task != bad {
		return nil, fmt.Errorf("sched: assignment %d holds task %d", bad, a.Task)
	}
	_, err := json.Marshal([2]float64{a.Start, a.End}) // worded by the encoder
	return nil, err
}

// appendColumns appends the three parallel arrays, 3n numbers of an
// answer; bad is the first assignment it cannot print, or -1.
//
//perf:hotpath
func (s *Schedule) appendColumns(dst []byte) (out []byte, bad int) {
	dst = append(dst, `,"machines":[`...)
	for j := range s.Assignments {
		a := &s.Assignments[j]
		if a.Task != j {
			return dst, j
		}
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a.Machine), 10)
	}
	for col, key := range [...]string{`],"starts":[`, `],"ends":[`} {
		dst = append(dst, key...)
		for j := range s.Assignments {
			if j > 0 {
				dst = append(dst, ',')
			}
			v := s.Assignments[j].Start
			if col == 1 {
				v = s.Assignments[j].End
			}
			var ok bool
			if dst, ok = task.AppendFloat(dst, v); !ok {
				return dst, j
			}
		}
	}
	return append(dst, "]}"...), -1
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var w scheduleJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Machines) != len(w.Starts) || len(w.Starts) != len(w.Ends) {
		return fmt.Errorf("sched: inconsistent array lengths %d/%d/%d",
			len(w.Machines), len(w.Starts), len(w.Ends))
	}
	s.M = w.M
	s.Dispatched = nil // the wire form carries no record; a reused s must not keep its old one
	s.Assignments = make([]Assignment, len(w.Machines))
	for j := range w.Machines {
		s.Assignments[j] = Assignment{
			Task: j, Machine: w.Machines[j], Start: w.Starts[j], End: w.Ends[j],
		}
	}
	return nil
}

// WriteJSON encodes the schedule to w.
func (s *Schedule) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}

// ReadJSON decodes a schedule from r. Feasibility is not checked;
// call Verify with the instance and placement for that.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
