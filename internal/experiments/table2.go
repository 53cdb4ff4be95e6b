package experiments

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/report"
)

func init() { register("table2", "Table 2: SABO_Δ and ABO_Δ bi-objective guarantees", runTable2) }

// runTable2 reproduces Table 2: the (makespan, memory) guarantee pairs
// of SABO_Δ and ABO_Δ, evaluated for the parameterizations of
// Figure 6 plus a Δ sweep.
func runTable2(w *Sink, _ Options) error {
	fmt.Fprintln(w, "Symbolic entries (as printed in the paper):")
	fmt.Fprintln(w, "  SABO_Δ: makespan (1+Δ)α²ρ1        memory (1+1/Δ)ρ2")
	fmt.Fprintln(w, "  ABO_Δ : makespan 2−1/m+Δα²ρ1      memory (1+m/Δ)ρ2")
	fmt.Fprintln(w)

	for _, cfg := range Table2Configs() {
		fmt.Fprintf(w, "m=%d  α²=%g  ρ1=ρ2=%s\n", cfg.M, cfg.Alpha2, ratioName(cfg.Rho))
		tb := report.NewTable("delta",
			"SABO makespan", "SABO memory", "ABO makespan", "ABO memory")
		alpha := math.Sqrt(cfg.Alpha2)
		for _, d := range []float64{0.25, 0.5, 1, 2, 4} {
			tb.AddRow(d,
				bounds.SABOMakespan(alpha, d, cfg.Rho),
				bounds.SABOMemory(d, cfg.Rho),
				bounds.ABOMakespan(cfg.M, alpha, d, cfg.Rho),
				bounds.ABOMemory(cfg.M, d, cfg.Rho),
			)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Paper's reading: for αρ1 ≥ 2 ABO_Δ always wins on makespan;")
	fmt.Fprintln(w, "SABO_Δ always wins on memory.")
	return nil
}

// Table2Config is one parameterization of the memory-aware summary
// (matching the sub-figures of Figure 6).
type Table2Config struct {
	M      int
	Alpha2 float64
	Rho    float64
}

// Table2Configs returns the paper's three parameterizations.
func Table2Configs() []Table2Config {
	return []Table2Config{
		{M: 5, Alpha2: 2, Rho: 4.0 / 3},
		{M: 5, Alpha2: 3, Rho: 1},
		{M: 5, Alpha2: 3, Rho: 4.0 / 3},
	}
}

func ratioName(rho float64) string {
	if rho == 1 {
		return "1"
	}
	if math.Abs(rho-4.0/3) < 1e-12 {
		return "4/3"
	}
	return fmt.Sprintf("%.4g", rho)
}
