package sched

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/task"
	"repro/internal/tick"
)

// scheduleJSON is the wire form of a Schedule: parallel arrays keyed
// by task ID, times in seconds, compact for large schedules and easy to
// load from plotting scripts. UnmarshalJSON decodes through it,
// AppendJSON writes it.
type scheduleJSON struct {
	M        int       `json:"m"`
	Machines []int     `json:"machines"`
	Starts   []float64 `json:"starts"`
	Ends     []float64 `json:"ends"`
}

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// AppendJSON appends the schedule exactly as encoding/json marshals
// scheduleJSON, without reflection: 3n numbers of an answer. Every
// tick prints as a finite number of seconds, so nothing can fail.
//
//perf:hotpath
func (s *Schedule) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(s.M), 10)
	dst = append(dst, `,"machines":[`...)
	for j := range s.Assignments {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s.Assignments[j].Machine), 10)
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
			dst = appendTick(dst, v)
		}
	}
	return append(dst, "]}"...)
}

// appendTick appends t as seconds, the bytes task.AppendFloat prints
// for t.Seconds(). From 1000 ticks (1e-6 s, where the encoder stops
// using an exponent) to 10^15 it writes the decimal t/10^9 from the
// integer, trailing zeros trimmed: Seconds rounds that quotient once
// (float64(t) is exact below 2^53), and a decimal of at most 15
// significant digits is the only one of that length rounding to its
// double, so it is the shortest round trip the encoder prints.
func appendTick(dst []byte, t tick.Tick) []byte {
	if t < 1000 || t >= 1e15 {
		dst, _ = task.AppendFloat(dst, t.Seconds()) // false only for NaN and ±Inf
		return dst
	}
	dst = strconv.AppendInt(dst, int64(t/tick.PerSecond), 10)
	frac := uint32(t % tick.PerSecond)
	if frac == 0 {
		return dst
	}
	n := 9
	for frac%10 == 0 {
		frac /= 10
		n--
	}
	var buf [10]byte
	buf[0] = '.'
	for i := n; i > 0; i-- {
		buf[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(dst, buf[:n+1]...)
}

// UnmarshalJSON implements json.Unmarshaler. Times convert to ticks by
// tick.FromSeconds, which rejects what no schedule holds: a time out of
// the tick range. Every tick below 2^51 (about 26 simulated days) comes
// back exactly from the seconds AppendJSON prints for it.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var w scheduleJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Machines) != len(w.Starts) || len(w.Starts) != len(w.Ends) {
		return fmt.Errorf("sched: inconsistent array lengths %d/%d/%d",
			len(w.Machines), len(w.Starts), len(w.Ends))
	}
	as := make([]Assignment, len(w.Machines))
	for j := range as {
		start, err := tick.FromSeconds(w.Starts[j])
		if err != nil {
			return fmt.Errorf("sched: task %d start: %w", j, err)
		}
		end, err := tick.FromSeconds(w.Ends[j])
		if err != nil {
			return fmt.Errorf("sched: task %d end: %w", j, err)
		}
		as[j] = Assignment{Machine: w.Machines[j], Start: start, End: end}
	}
	s.M = w.M
	s.Dispatched = nil // the wire form carries no record; a reused s must not keep its old one
	s.Assignments = as
	return nil
}
