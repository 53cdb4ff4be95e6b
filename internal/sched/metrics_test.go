package sched

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/task"
)

func TestComputeMetricsKnown(t *testing.T) {
	// 2 machines: m0 runs 3 then 1 (ends 4); m1 runs 2 (ends 2).
	in := inst(t, 2, 3, 1, 2)
	s, err := FromMapping(in, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := s.ComputeMetrics()
	if m.Makespan != 4 {
		t.Errorf("makespan = %v", m.Makespan)
	}
	if m.TotalWork != 6 {
		t.Errorf("total work = %v", m.TotalWork)
	}
	if m.AvgLoad != 3 {
		t.Errorf("avg load = %v", m.AvgLoad)
	}
	if math.Abs(m.Utilization-6.0/8) > 1e-12 {
		t.Errorf("utilization = %v, want 0.75", m.Utilization)
	}
	if math.Abs(m.IdleTime-2) > 1e-12 {
		t.Errorf("idle = %v, want 2", m.IdleTime)
	}
	// Completion times: 3, 4, 2 → sum 9.
	if m.SumFlow != 9 {
		t.Errorf("sumflow = %v, want 9", m.SumFlow)
	}
	if m.MaxStart != 3 {
		t.Errorf("max start = %v, want 3", m.MaxStart)
	}
	if !strings.Contains(m.String(), "util=0.750") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestCriticalPath(t *testing.T) {
	in := inst(t, 2, 3, 1, 2)
	s, _ := FromMapping(in, []int{0, 0, 1})
	cp := s.CriticalPath()
	if len(cp) != 2 {
		t.Fatalf("critical path has %d tasks", len(cp))
	}
	if cp[0] != 0 || cp[1] != 1 {
		t.Fatalf("critical path order %v", cp)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	s := New(0, 2)
	if cp := s.CriticalPath(); cp != nil {
		t.Fatalf("empty schedule critical path %v", cp)
	}
}

func TestMetricsInvariantsProperty(t *testing.T) {
	f := func(raw []uint8, mRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		m := int(mRaw%6) + 1
		actuals := make([]float64, len(raw))
		mapping := make([]int, len(raw))
		for i, v := range raw {
			actuals[i] = float64(v%40) + 1
			mapping[i] = int(v) % m
		}
		in, err := task.New(m, 1, actuals, actuals)
		if err != nil {
			return false
		}
		s, err := FromMapping(in, mapping)
		if err != nil {
			return false
		}
		mt := s.ComputeMetrics()
		if mt.Utilization <= 0 || mt.Utilization > 1+1e-12 {
			return false
		}
		if mt.Makespan < mt.AvgLoad-1e-9 {
			return false
		}
		if mt.IdleTime < -1e-9 {
			return false
		}
		// The machines' loads must sum to the total work.
		sum := 0.0
		for _, load := range s.Loads() {
			sum += load
		}
		if math.Abs(sum-mt.TotalWork) > 1e-9 {
			return false
		}
		// The critical path's last completion is the makespan.
		cp := s.CriticalPath()
		return len(cp) > 0 && s.Assignments[cp[len(cp)-1]].End.Seconds() == mt.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
