package sched

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/task"
)

func inst(t *testing.T, m int, actuals ...float64) *task.Instance {
	t.Helper()
	est := make([]float64, len(actuals))
	copy(est, actuals)
	in, err := task.New(m, 1, est, actuals)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFromMappingAndMetrics(t *testing.T) {
	in := inst(t, 2, 3, 1, 2) // tasks 0,1,2
	s, err := FromMapping(in, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 3 {
		t.Fatalf("makespan = %v, want 3", got)
	}
	loads := s.Loads()
	if loads[0] != 3 || loads[1] != 3 {
		t.Fatalf("loads = %v", loads)
	}
	if got := s.Imbalance(); got != 0 {
		t.Fatalf("imbalance = %v, want 0", got)
	}
	if err := s.Verify(in, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromMappingSequencesTasks(t *testing.T) {
	in := inst(t, 1, 1, 2, 3)
	s, err := FromMapping(in, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Assignments[1].Start != sec(1) || s.Assignments[2].Start != sec(3) {
		t.Fatalf("starts = %v, %v", s.Assignments[1].Start, s.Assignments[2].Start)
	}
	if s.Makespan() != 6 {
		t.Fatalf("makespan = %v", s.Makespan())
	}
}

func TestFromMappingRejectsBadShape(t *testing.T) {
	in := inst(t, 2, 1, 1)
	if _, err := FromMapping(in, []int{0}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := FromMapping(in, []int{0, 7}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestVerifyCatchesWrongDuration(t *testing.T) {
	in := inst(t, 1, 2)
	s := New(1, 1)
	s.Assignments[0] = Assignment{Machine: 0, Start: sec(0), End: sec(1)} // actual is 2
	if err := s.Verify(in, nil); !errors.Is(err, ErrBadDuration) {
		t.Fatalf("got %v, want ErrBadDuration", err)
	}
}

func TestVerifyCatchesOverlap(t *testing.T) {
	in := inst(t, 1, 2, 2)
	s := New(2, 1)
	s.Assignments[0] = Assignment{Machine: 0, Start: sec(0), End: sec(2)}
	s.Assignments[1] = Assignment{Machine: 0, Start: sec(1), End: sec(3)}
	if err := s.Verify(in, nil); !errors.Is(err, ErrOverlap) {
		t.Fatalf("got %v, want ErrOverlap", err)
	}
}

func TestVerifyCatchesNegativeStart(t *testing.T) {
	in := inst(t, 1, 2)
	s := New(1, 1)
	s.Assignments[0] = Assignment{Machine: 0, Start: sec(-1), End: sec(1)}
	if err := s.Verify(in, nil); !errors.Is(err, ErrNegativeTime) {
		t.Fatalf("got %v, want ErrNegativeTime", err)
	}
}

func TestVerifyCatchesReplicaViolation(t *testing.T) {
	in := inst(t, 2, 1)
	p := placement.New(1, 2)
	p.Assign(0, 0)
	s := New(1, 2)
	s.Assignments[0] = Assignment{Machine: 1, Start: sec(0), End: sec(1)}
	if err := s.Verify(in, p); !errors.Is(err, ErrOutsideReplica) {
		t.Fatalf("got %v, want ErrOutsideReplica", err)
	}
}

func TestVerifyAcceptsReplicaMember(t *testing.T) {
	in := inst(t, 2, 1)
	p := placement.New(1, 2)
	p.Sets[0] = []int{0, 1}
	s := New(1, 2)
	s.Assignments[0] = Assignment{Machine: 1, Start: sec(0), End: sec(1)}
	if err := s.Verify(in, p); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesShapeMismatch(t *testing.T) {
	in := inst(t, 2, 1, 1)
	s := New(1, 2)
	s.Assignments[0] = Assignment{Machine: 0, End: sec(1)}
	if err := s.Verify(in, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("got %v, want ErrShapeMismatch", err)
	}
}

func TestVerifyDurationsCustomModel(t *testing.T) {
	// A schedule with a 2x-penalized remote task fails plain Verify
	// but passes VerifyDurations with the matching model.
	in := inst(t, 2, 3, 1)
	s := New(2, 2)
	s.Assignments[0] = Assignment{Machine: 0, Start: sec(0), End: sec(6)} // 3 * penalty 2
	s.Assignments[1] = Assignment{Machine: 1, Start: sec(0), End: sec(1)}
	if err := s.Verify(in, nil); err == nil {
		t.Fatal("penalized schedule passed plain Verify")
	}
	dur := func(taskID, machine int) float64 {
		if taskID == 0 && machine == 0 {
			return 6
		}
		return in.Tasks[taskID].Actual
	}
	if err := s.VerifyDurations(in, nil, dur); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceUnbalanced(t *testing.T) {
	in := inst(t, 2, 4, 1)
	s, err := FromMapping(in, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// C_max=4, total=5, m=2 → imbalance = 8/5 - 1 = 0.6
	if got := s.Imbalance(); got < 0.599 || got > 0.601 {
		t.Fatalf("imbalance = %v, want 0.6", got)
	}
}

func TestGanttRendersAllMachines(t *testing.T) {
	in := inst(t, 3, 2, 2, 2)
	s, err := FromMapping(in, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Gantt(40)
	for _, row := range []string{"m0", "m1", "m2"} {
		if !strings.Contains(g, row) {
			t.Fatalf("Gantt missing row %s:\n%s", row, g)
		}
	}
	if !strings.Contains(g, "time 0") {
		t.Fatalf("Gantt missing time axis:\n%s", g)
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	s := New(0, 2)
	if g := s.Gantt(40); !strings.Contains(g, "empty") {
		t.Fatalf("empty schedule rendered as %q", g)
	}
}

func TestSummaryMentionsMakespan(t *testing.T) {
	in := inst(t, 1, 5)
	s, _ := FromMapping(in, []int{0})
	if got := s.Summary(); !strings.Contains(got, "makespan=5") {
		t.Fatalf("Summary() = %q", got)
	}
}

func TestFromMappingAlwaysVerifiesProperty(t *testing.T) {
	f := func(raw []uint8, mRaw uint8) bool {
		if len(raw) == 0 {
			raw = []uint8{1}
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		m := int(mRaw%8) + 1
		actuals := make([]float64, len(raw))
		mapping := make([]int, len(raw))
		for i, v := range raw {
			actuals[i] = float64(v%50) + 1
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
		return s.Verify(in, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
