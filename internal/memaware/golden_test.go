package memaware

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bounds"
	"repro/internal/task"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenInstance is a fixed memory-aware instance: a mix of long
// narrow tasks and short fat ones, with actuals pinned inside the
// α-band so every run is deterministic.
func goldenInstance() *task.Instance {
	alpha := math.Sqrt(2)
	ests := []float64{9, 7, 5, 4, 3, 3, 2, 2, 1, 1}
	facts := []float64{1.2, 0.8, 1.3, 0.9, 1.0, 1.4, 0.75, 1.1, 1.0, 1.3}
	sizes := []float64{1, 2, 8, 6, 1, 7, 5, 1, 4, 2}
	in := &task.Instance{M: 3, Alpha: alpha, Tasks: make([]task.Task, len(ests))}
	for j := range ests {
		in.Tasks[j] = task.Task{ID: j, Estimate: ests[j], Actual: ests[j] * facts[j], Size: sizes[j]}
	}
	return in
}

// TestGoldenBiObjective pins the byte-exact behavior of the Table 2
// algorithms (SABO/SBO/ABO/GABO) on a fixed instance across the Δ
// grid, together with the analytic guarantees they must live under
// (ρ1 = ρ2 = 4/3, LPT's bound). Refresh with:
//
//	go test ./internal/memaware -run TestGolden -update
func TestGoldenBiObjective(t *testing.T) {
	const rho = 4.0 / 3.0
	in := goldenInstance()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# algorithm delta planned-makespan planned-memory makespan memmax |S1| |S2| makespan-guarantee memory-guarantee")

	type algo struct {
		name string
		run  func(*task.Instance, Config) (*Result, error)
		mk   func(alpha, delta float64) float64
		mem  func(delta float64) float64
	}
	algos := []algo{
		{"sabo", SABO,
			func(a, d float64) float64 { return bounds.SABOMakespan(a, d, rho) },
			func(d float64) float64 { return bounds.SABOMemory(d, rho) }},
		{"sbo", sbo,
			func(a, d float64) float64 { return bounds.SABOMakespan(a, d, rho) },
			func(d float64) float64 { return bounds.SABOMemory(d, rho) }},
		{"abo", ABO,
			func(a, d float64) float64 { return bounds.ABOMakespan(in.M, a, d, rho) },
			func(d float64) float64 { return bounds.ABOMemory(in.M, d, rho) }},
		{"gabo:3", func(i *task.Instance, c Config) (*Result, error) { return GABO(i, c, 3) },
			func(a, d float64) float64 { return bounds.ABOMakespan(in.M, a, d, rho) },
			func(d float64) float64 { return bounds.ABOMemory(in.M, d, rho) }},
	}
	for _, a := range algos {
		for _, delta := range []float64{0.5, 1, 2} {
			res, err := a.run(in.Clone(), Config{Delta: delta})
			if err != nil {
				t.Fatalf("%s delta=%v: %v", a.name, delta, err)
			}
			fmt.Fprintf(&buf, "%s %.1f %.6f %.6f %.6f %.6f %d %d %.6f %.6f\n",
				a.name, delta,
				res.PlannedMakespan, res.PlannedMemory,
				res.Makespan, res.MemMax,
				len(res.TimeIntensive), len(res.MemoryIntensive),
				a.mk(in.Alpha, delta), a.mem(delta))
		}
	}

	got := buf.Bytes()
	path := filepath.Join("testdata", "golden", "biobjective.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bi-objective output diverged from golden file; run with -update if intentional.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
