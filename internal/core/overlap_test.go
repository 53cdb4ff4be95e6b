package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/memaware"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// overlapShapes covers every way opt.Estimate answers: the trivial
// checks (m = 1, n ≤ m), which never reach the memo, the exact search
// (n ≤ 20) and the bounds alone, at a mid size just above the exact
// search and at a large one.
var overlapShapes = []struct {
	name    string
	n, m    int
	trivial bool
}{
	{"trivial/m=1", 5, 1, true},
	{"trivial/n<=m", 4, 6, true},
	{"exact", 12, 3, false},
	{"mid", 36, 12, false},
	{"bounds", 300, 8, false},
}

func overlapInstance(name string, n, m int, seed uint64) *task.Instance {
	in := workload.MustNew(workload.Spec{Name: name, N: n, M: m, Alpha: 1.5, Seed: seed})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
	return in
}

func optimaEqual(a, b opt.Result) bool {
	return sameBits(a.Lower, b.Lower) && sameBits(a.Upper, b.Upper) &&
		a.Exact == b.Exact && a.Method == b.Method
}

// memoCalls is what the optimum memo has counted so far, hits and
// misses.
func memoCalls() (hits, misses int64) {
	return obs.GetCounter("opt.cache_hits").Load(), obs.GetCounter("opt.cache_misses").Load()
}

// settleGoroutines waits for the goroutine count to come back to base:
// a joined solve has signalled its waiter but may still be returning.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunAlgorithmMatchesScore holds the overlapped scoring to the
// serial one: RunAlgorithm, whose optimum solves beside the run, gives
// field for field, floats by bits, the Outcome core.Score gives on the
// same algo.Scratch result with the optimum solved after it — with the
// memo cold, so the solve runs on its own goroutine, and warm. One call
// moves the memo's hits plus misses by exactly one (none on a trivial
// instance, which Estimate answers before the memo).
func TestRunAlgorithmMatchesScore(t *testing.T) {
	var r Runner
	for si, sh := range overlapShapes {
		in := overlapInstance("uniform", sh.n, sh.m, uint64(10+si))
		names := []string{"lpt-nochoice", "lpt-norestriction", "oracle-lpt", "ls-group:1"}
		if sh.m%2 == 0 {
			names = append(names, fmt.Sprintf("ls-group:%d", sh.m/2))
		}
		for _, name := range names {
			a, err := algo.New(name)
			if err != nil {
				t.Fatal(err)
			}
			var sc algo.Scratch
			res, err := sc.Execute(in, a)
			if err != nil {
				t.Fatal(err)
			}
			opt.ResetCache()
			want := Score(in, a, res)
			for _, memo := range []string{"cold", "warm"} {
				t.Run(sh.name+"/"+name+"/"+memo, func(t *testing.T) {
					if memo == "cold" {
						opt.ResetCache()
					}
					hits, misses := memoCalls()
					got, err := r.RunAlgorithm(in, a, 0)
					if err != nil {
						t.Fatal(err)
					}
					outcomesEqual(t, got, want)
					h, m := memoCalls()
					wantCalls := int64(1)
					if sh.trivial {
						wantCalls = 0
					}
					if calls := h - hits + m - misses; calls != wantCalls {
						t.Errorf("memo hits+misses moved by %d, want %d", calls, wantCalls)
					}
					if !sh.trivial && memo == "cold" && m-misses != 1 {
						t.Errorf("cold call counted %d misses, want 1", m-misses)
					}
					if !sh.trivial && memo == "warm" && h-hits != 1 {
						t.Errorf("warm call counted %d hits, want 1", h-hits)
					}
				})
			}
		}
	}
}

// panicking is an algorithm whose phase 1 panics, so RunAlgorithm is
// left by a panic while its optimum may still be solving.
type panicking struct{ algo.Algorithm }

func (panicking) Place(*task.Instance) (*placement.Placement, error) { panic("phase 1 panicked") }

// TestRunErrorsJoinTheSolve leaves each overlapped call by its error
// path with a cold memo, so a solve is running when the run fails: a
// phase-1 error (LS-Group with k = 4 on m = 6), a panic in phase 1 and
// Δ = 0 for the memory-aware run. Each returns the error (or raises the
// panic) the run alone gives, no goroutine is left behind, the solve it
// started has been stored, and the Runner's next call is right.
func TestRunErrorsJoinTheSolve(t *testing.T) {
	in := overlapInstance("spmv", 300, 6, 3)
	lpt, err := algo.New("lpt-nochoice")
	if err != nil {
		t.Fatal(err)
	}
	var sc algo.Scratch
	res, err := sc.Execute(in, lpt)
	if err != nil {
		t.Fatal(err)
	}
	want := Score(in, lpt, res)
	group4, err := algo.New("ls-group:4")
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := sc.Execute(in, group4)
	if wantErr == nil {
		t.Fatal("ls-group:4 ran on m = 6")
	}
	_, wantDeltaErr := memaware.ABO(in, memaware.Config{Delta: 0})
	if wantDeltaErr == nil {
		t.Fatal("ABO ran at Δ = 0")
	}

	var r Runner
	cases := []struct {
		name  string
		times []float64 // the column the failed call solved
		call  func() error
		want  string
	}{
		{"phase-1 error", in.Actuals(), func() error {
			_, err := r.RunAlgorithm(in, group4, 0)
			return err
		}, wantErr.Error()},
		{"phase-1 panic", in.Actuals(), func() (err error) {
			defer func() { err = fmt.Errorf("%v", recover()) }()
			r.RunAlgorithm(in, panicking{lpt}, 0)
			return nil
		}, "phase 1 panicked"},
		{"memory-aware Δ=0", in.Sizes(), func() error {
			_, err := RunMemoryAware(in, MemoryAwareConfig{Delta: 0, Replicate: true})
			return err
		}, wantDeltaErr.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt.ResetCache()
			base := runtime.NumGoroutine()
			if err := c.call(); err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %s", err, c.want)
			}
			settleGoroutines(t, base)
			hits, _ := memoCalls()
			opt.Estimate(c.times, in.M, 0)
			if h, _ := memoCalls(); h-hits != 1 {
				t.Error("the failed call's solve was not stored in the memo")
			}
			got, err := r.RunAlgorithm(in, lpt, 0)
			if err != nil {
				t.Fatal(err)
			}
			outcomesEqual(t, got, want)
		})
	}
}

// TestRunMemoryAwareMatchesSerial holds RunMemoryAware, whose memory
// optimum solves beside the algorithm, to the algorithm run alone and
// both optima solved one after the other, with the LPT and the exact
// reference mappings, replication on and off, and the memo cold and
// warm.
func TestRunMemoryAwareMatchesSerial(t *testing.T) {
	for _, exact := range []bool{false, true} {
		n := 300
		if exact {
			n = 12
		}
		in := overlapInstance("spmv", n, 4, 21)
		for _, replicate := range []bool{false, true} {
			cfg := MemoryAwareConfig{Delta: 1, Replicate: replicate, Exact: exact}
			mc := memaware.Config{Delta: cfg.Delta}
			if exact {
				mc.Pi1, mc.Pi2 = memaware.ExactMapping, memaware.ExactMapping
			}
			run := memaware.SABO
			if replicate {
				run = memaware.ABO
			}
			res, err := run(in, mc)
			if err != nil {
				t.Fatal(err)
			}
			opt.ResetCache()
			optMakespan := opt.Estimate(in.Actuals(), in.M, 0)
			optMemory := opt.Estimate(in.Sizes(), in.M, 0)
			for _, memo := range []string{"cold", "warm"} {
				t.Run(fmt.Sprintf("exact=%v/replicate=%v/%s", exact, replicate, memo), func(t *testing.T) {
					if memo == "cold" {
						opt.ResetCache()
					}
					base := runtime.NumGoroutine()
					out, err := RunMemoryAware(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					settleGoroutines(t, base)
					if !optimaEqual(out.OptMakespan, optMakespan) {
						t.Errorf("OptMakespan = %+v, want %+v", out.OptMakespan, optMakespan)
					}
					if !optimaEqual(out.OptMemory, optMemory) {
						t.Errorf("OptMemory = %+v, want %+v", out.OptMemory, optMemory)
					}
					got := out.Result
					if got.Algorithm != res.Algorithm || !sameBits(got.Makespan, res.Makespan) ||
						!sameBits(got.MemMax, res.MemMax) ||
						!sameBits(got.PlannedMakespan, res.PlannedMakespan) ||
						!sameBits(got.PlannedMemory, res.PlannedMemory) {
						t.Errorf("result %+v, want %+v", got, res)
					}
					if !reflect.DeepEqual(got.Placement.Sets, res.Placement.Sets) ||
						!reflect.DeepEqual(got.Schedule.Assignments, res.Schedule.Assignments) ||
						!reflect.DeepEqual(got.TimeIntensive, res.TimeIntensive) ||
						!reflect.DeepEqual(got.MemoryIntensive, res.MemoryIntensive) {
						t.Error("placement, schedule or S1/S2 diverge from the algorithm run alone")
					}
				})
			}
		}
	}
}
