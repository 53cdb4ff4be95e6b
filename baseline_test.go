// Tests over the committed benchmark baseline: BENCH_17.json is not
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

// zeroAllocFloors lists the kernels whose committed entry must record
// zero steady-state allocations (0 allocs/op, 0 B/op) and at least this
// many tasks/s. The three without a rate floor are the micro-kernels
// that attribute PR 17's gain — the shard-list dispatch under full
// replication and under ABO's pinned-plus-replicated shape, and the one
// key sort an LPT plan makes — whose rates CHANGES.md records against
// the parent's on the same host.
var zeroAllocFloors = map[string]float64{
	"SimLoop/n=100k":                10e6,
	"OpenSimLoop/n=10k":             1.5e6,
	"OpenSimLoop/m=128":             500e3,
	"SimLoop/everywhere/n=10k,m=64": 0,
	"SimLoop/abo/n=10k,m=64":        0,
	"LPTOrder/n=10k":                0,
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
// allocations, as are the shard-list and key-sort micro-kernels
// (zeroAllocFloors). Scaling/Groups8 pins the group-placement validation
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
	data, err := os.ReadFile("BENCH_17.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing BENCH_17.json: %v", err)
	}
	found := map[string]bool{}
	for _, m := range base.Benchmarks {
		found[m.Name] = true
		if floor, ok := zeroAllocFloors[m.Name]; ok {
			if m.TasksPerSec < floor {
				t.Errorf("%s records %.0f tasks/s, below the %.0f floor", m.Name, m.TasksPerSec, floor)
			}
			if m.AllocsPerOp != 0 || m.BytesPerOp != 0 {
				t.Errorf("%s records %d allocs/op (%d B/op), want zero steady-state allocations",
					m.Name, m.AllocsPerOp, m.BytesPerOp)
			}
		}
		switch m.Name {
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
	for name := range zeroAllocFloors {
		if !found[name] {
			t.Errorf("committed baseline is missing %s", name)
		}
	}
	for _, name := range []string{
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
