package sched

import (
	"fmt"

	"repro/internal/tick"
)

// Metrics summarizes an executed schedule beyond the makespan. All
// quantities use actual (executed) durations.
type Metrics struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// TotalWork is Σ p_j.
	TotalWork float64
	// AvgLoad is TotalWork / m, the lower bound on the makespan.
	AvgLoad float64
	// Imbalance is Makespan/AvgLoad − 1 (0 = perfectly balanced).
	Imbalance float64
	// Utilization is TotalWork / (m · Makespan) ∈ (0, 1]: the busy
	// fraction of the machine-time rectangle.
	Utilization float64
	// IdleTime is m·Makespan − TotalWork: machine-time wasted waiting.
	IdleTime float64
	// SumFlow is Σ C_j (total completion time), the responsiveness
	// metric of queueing-oriented analyses.
	SumFlow float64
	// MaxStart is the latest task start time.
	MaxStart float64
}

// ComputeMetrics derives the metric set from the schedule.
func (s *Schedule) ComputeMetrics() Metrics {
	var m Metrics
	var maxStart tick.Tick
	for _, a := range s.Assignments {
		m.SumFlow += a.End.Seconds()
		maxStart = max(maxStart, a.Start)
	}
	m.Makespan, m.TotalWork, m.MaxStart = s.Makespan(), s.work().Seconds(), maxStart.Seconds()
	if s.M > 0 {
		m.AvgLoad = m.TotalWork / float64(s.M)
	}
	if m.AvgLoad > 0 {
		m.Imbalance = m.Makespan/m.AvgLoad - 1
	}
	if m.Makespan > 0 && s.M > 0 {
		m.Utilization = m.TotalWork / (float64(s.M) * m.Makespan)
		m.IdleTime = float64(s.M)*m.Makespan - m.TotalWork
	}
	return m
}

// String renders the metric set on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("makespan=%.4g util=%.3f imbalance=%.3f idle=%.4g sumflow=%.4g",
		m.Makespan, m.Utilization, m.Imbalance, m.IdleTime, m.SumFlow)
}

// CriticalPath returns the tasks of the machine that determines the
// makespan, in execution order — the chain an operator would inspect
// first when debugging a slow run.
func (s *Schedule) CriticalPath() []int32 {
	end := s.end()
	for _, a := range s.Assignments {
		if a.End == end {
			ids, off := s.inStartOrder(nil, nil)
			return ids[off[a.Machine]:off[a.Machine+1]]
		}
	}
	return nil
}
