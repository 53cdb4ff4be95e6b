package sched

import (
	"fmt"
	"strings"
)

// Gantt renders the schedule as an ASCII chart, one row per machine,
// time flowing left to right. width is the number of character cells
// representing the makespan (minimum 20). Each task is drawn as a run
// of its ID's last digit, bracketed when it is at least 3 cells wide.
// It is the textual equivalent of the paper's schedule figures
// (Figures 1, 2, and the SABO/ABO examples).
func (s *Schedule) Gantt(width int) string {
	if width < 20 {
		width = 20
	}
	end := s.end()
	if end == 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / float64(end) // cells per tick

	ids, off := s.inStartOrder(nil, nil)
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 %s %.4g\n", strings.Repeat("-", width-4), end.Seconds())
	for i := 0; i < s.M; i++ {
		row := make([]byte, width)
		for c := range row {
			row[c] = '.'
		}
		for _, j := range ids[off[i]:off[i+1]] {
			a := s.Assignments[j]
			lo := int(float64(a.Start) * scale)
			hi := int(float64(a.End) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			label := fmt.Sprintf("%d", j)
			fill := label[len(label)-1]
			for c := lo; c < hi; c++ {
				row[c] = fill
			}
			if hi-lo >= 3 {
				row[lo] = '['
				row[hi-1] = ']'
			}
		}
		fmt.Fprintf(&b, "m%-3d |%s|\n", i, row)
	}
	return b.String()
}

// Summary returns a one-line metrics summary of the schedule.
func (s *Schedule) Summary() string {
	return fmt.Sprintf("makespan=%.4g imbalance=%.3f machines=%d tasks=%d",
		s.Makespan(), s.Imbalance(), s.M, len(s.Assignments))
}
