package experiments

import (
	"fmt"
	"io"

	"repro/internal/bounds"
	"repro/internal/report"
)

func init() {
	register("fig6", "Figure 6: memory–makespan guarantee tradeoff (SABO_Δ vs ABO_Δ)", runFig6)
}

// runFig6 reproduces Figure 6: the memory–makespan guarantee tradeoff
// of SABO_Δ and ABO_Δ for the paper's three parameterizations, with the
// impossibility frontier no schedule-combining algorithm can cross.
// The series also go out as fig6.csv (long form) and fig6a–c.svg, one
// per parameterization.
func runFig6(w *Sink, _ Options) error {
	csv := report.NewTable("m", "alpha2", "rho", "series", "memory_guarantee", "makespan_guarantee")
	for i, cfg := range Table2Configs() {
		series := bounds.MemoryMakespan(cfg.M, cfg.Alpha2, cfg.Rho, cfg.Rho, nil)
		for _, s := range series {
			for _, pt := range s.Points {
				csv.AddRow(cfg.M, cfg.Alpha2, cfg.Rho, s.Name, pt.X, pt.Y)
			}
		}
		w.attach(fmt.Sprintf("fig6%c.svg", 'a'+i), func(w io.Writer) error {
			return report.WriteSVGPlot(w, series, report.SVGPlotOptions{
				Title: fmt.Sprintf("Figure 6: m=%d, alpha^2=%g, rho=%s",
					cfg.M, cfg.Alpha2, ratioName(cfg.Rho)),
				XLabel: "memory guarantee",
				YLabel: "makespan guarantee",
				LogX:   true,
			})
		})
		if err := report.Plot(w, series, report.PlotOptions{
			Title: fmt.Sprintf("m=%d, alpha^2=%g, rho1=rho2=%s",
				cfg.M, cfg.Alpha2, ratioName(cfg.Rho)),
			XLabel: "memory guarantee",
			YLabel: "makespan guarantee",
			LogX:   true,
			Width:  64, Height: 16,
		}); err != nil {
			return err
		}
		// Crossover: smallest memory guarantee at which ABO's makespan
		// guarantee beats SABO's.
		sabo := seriesByName(series, "SABO")
		abo := seriesByName(series, "ABO")
		fmt.Fprintf(w, "SABO makespan range [%.4g, %.4g], ABO makespan range [%.4g, %.4g]\n",
			minY(sabo), maxY(sabo), minY(abo), maxY(abo))
		fmt.Fprintln(w)
	}
	w.attach("fig6.csv", csv.WriteCSV)
	fmt.Fprintln(w, "Shape checks (paper's observations):")
	fmt.Fprintln(w, " * SABO always dominates on the memory guarantee;")
	fmt.Fprintln(w, " * for αρ1 ≥ 2 (sub-figures a and c) ABO always dominates on makespan;")
	fmt.Fprintln(w, " * a makespan guarantee below 3 in sub-figure (b) requires ABO.")
	return nil
}

func minY(s bounds.Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	min := s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < min {
			min = p.Y
		}
	}
	return min
}

func maxY(s bounds.Series) float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}
