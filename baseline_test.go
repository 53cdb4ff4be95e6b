// Tests over the committed benchmark baseline: BENCH_14.json is not
// just a drift reference for cmd/benchreport, it also carries the
// performance claims this repo makes (DESIGN.md, EXPERIMENTS.md E5 and
// E11). Re-measuring on every CI host would be flaky; asserting on the
// committed numbers instead means a bench-update that loses a claimed
// property fails review loudly rather than silently rewriting the
// claim.
package repro_test

import (
	"encoding/json"
	"os"
	"testing"
)

// coldSolveParent is what the parent of the cold-solve rewrite measured
// on the EstimateCold specs (same benchsuite code, same host, same
// BENCHTIME), and the multiple of it the committed baseline must hold.
var coldSolveParent = map[string]struct{ tasksPerSec, factor float64 }{
	"EstimateCold/n=10k,m=64": {tasksPerSec: 385_281, factor: 3},
	"EstimateCold/n=2k,m=512": {tasksPerSec: 101_963, factor: 3},
	"EstimateCold/n=200,m=8":  {tasksPerSec: 1_303_525, factor: 1},
}

// benchBaseline mirrors the cmd/benchreport report schema.
type benchBaseline struct {
	Benchmarks []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		TasksPerSec float64 `json:"tasks_per_sec"`
	} `json:"benchmarks"`
}

// TestCommittedBaselineClaims pins the headline numbers of the
// data-oriented simulator cores: the committed SimLoop/n=100k entry
// must record at least 10M tasks/s, the OpenSimLoop/n=10k entry —
// the flat open-system engine, 100× over the event engine it replaced
// — at least 1.5M tasks/s, and OpenSimLoop/m=128 — race collapse on
// two-word cohort masks, which the single-word version left on the
// wheel loop — at least 500K tasks/s, all at zero steady-state
// allocations. Scaling/Groups8 pins the group-placement validation
// alloc fix (it was 10,015 allocs/op when validateGroups sorted a
// fresh copy of every task's replica set). The flat-engine Scaling
// entries inherit the zero-allocation simulator but still allocate in
// placement scoring, so beyond the Groups8 cap only their presence is
// asserted here; benchreport gates their drift. EstimateCold pins the
// near-linear cold optimum solve against the rates its parent commit
// recorded for the same three specs on the same host (CHANGES.md, PR
// 14): the two large shapes at ≥ 3× the parent's rate in ≤ 256 KB/op
// (the dense kernels took 5.5 and 8.3 MB), the small one no slower.
func TestCommittedBaselineClaims(t *testing.T) {
	data, err := os.ReadFile("BENCH_14.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing BENCH_14.json: %v", err)
	}
	found := map[string]bool{}
	for _, m := range base.Benchmarks {
		found[m.Name] = true
		switch m.Name {
		case "SimLoop/n=100k":
			if m.TasksPerSec < 10e6 {
				t.Errorf("SimLoop/n=100k records %.0f tasks/s, below the 10M floor", m.TasksPerSec)
			}
			if m.AllocsPerOp != 0 || m.BytesPerOp != 0 {
				t.Errorf("SimLoop/n=100k records %d allocs/op (%d B/op), want zero steady-state allocations",
					m.AllocsPerOp, m.BytesPerOp)
			}
		case "OpenSimLoop/n=10k":
			if m.TasksPerSec < 1.5e6 {
				t.Errorf("OpenSimLoop/n=10k records %.0f tasks/s, below the 1.5M floor", m.TasksPerSec)
			}
			if m.AllocsPerOp != 0 || m.BytesPerOp != 0 {
				t.Errorf("OpenSimLoop/n=10k records %d allocs/op (%d B/op), want zero steady-state allocations",
					m.AllocsPerOp, m.BytesPerOp)
			}
		case "OpenSimLoop/m=128":
			if m.TasksPerSec < 500e3 {
				t.Errorf("OpenSimLoop/m=128 records %.0f tasks/s, below the 500K floor", m.TasksPerSec)
			}
			if m.AllocsPerOp != 0 || m.BytesPerOp != 0 {
				t.Errorf("OpenSimLoop/m=128 records %d allocs/op (%d B/op), want zero steady-state allocations",
					m.AllocsPerOp, m.BytesPerOp)
			}
		case "EstimateCold/n=10k,m=64", "EstimateCold/n=2k,m=512", "EstimateCold/n=200,m=8":
			parent := coldSolveParent[m.Name]
			if m.TasksPerSec < parent.factor*parent.tasksPerSec {
				t.Errorf("%s records %.0f tasks/s, below %.0fx the parent's %.0f",
					m.Name, m.TasksPerSec, parent.factor, parent.tasksPerSec)
			}
			if m.BytesPerOp > 256<<10 {
				t.Errorf("%s records %d B/op, want a cold solve within 256 KB", m.Name, m.BytesPerOp)
			}
		case "Scaling/Groups8/n=10k":
			if m.AllocsPerOp > 64 {
				t.Errorf("Scaling/Groups8/n=10k records %d allocs/op, want the post-validateGroups-fix ≤ 64",
					m.AllocsPerOp)
			}
		}
	}
	for _, name := range []string{
		"SimLoop/n=100k",
		"SimLoopEvent/n=100k",
		"OpenSimLoop/n=10k",
		"OpenSimLoop/m=128",
		"OpenSimLoopEvent/n=10k",
		"Scaling/NoReplication/n=100k",
		"Scaling/Groups8/n=10k",
		"Scaling/Everywhere/n=10k",
		"EstimateCold/n=10k,m=64",
		"EstimateCold/n=2k,m=512",
		"EstimateCold/n=200,m=8",
	} {
		if !found[name] {
			t.Errorf("committed baseline is missing %s", name)
		}
	}
}
