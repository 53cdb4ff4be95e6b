package experiments

import (
	"fmt"
	"io"

	"repro/internal/bounds"
	"repro/internal/report"
)

func init() {
	register("fig3", "Figure 3: guarantee vs replication, m=210, α ∈ {1.1, 1.5, 2}", runFig3)
}

// runFig3 reproduces Figure 3: the ratio–replication tradeoff for m=210
// and α ∈ {1.1, 1.5, 2}. Each sub-figure plots the LS-Group guarantee
// as the number of replicas per task (m/k) sweeps the divisors of m,
// against the single-point guarantees of the two extreme strategies,
// Graham's baseline, and the Theorem 1 impossibility bound. The series
// also go out as fig3.csv (long form) and fig3a–c.svg, one per α.
func runFig3(w *Sink, _ Options) error {
	const m = 210
	csv := report.NewTable("alpha", "series", "replicas", "guarantee")
	for i, alpha := range []float64{1.1, 1.5, 2} {
		series := bounds.RatioReplication(m, alpha)
		for _, s := range series {
			for _, pt := range s.Points {
				csv.AddRow(alpha, s.Name, pt.X, pt.Y)
			}
		}
		w.attach(fmt.Sprintf("fig3%c.svg", 'a'+i), func(w io.Writer) error {
			return report.WriteSVGPlot(w, series, report.SVGPlotOptions{
				Title:  fmt.Sprintf("Figure 3: m=%d, alpha=%g", m, alpha),
				XLabel: "replicas per task (m/k)",
				YLabel: "guaranteed competitive ratio",
				LogX:   true,
			})
		})
		if err := report.Plot(w, series, report.PlotOptions{
			Title:  fmt.Sprintf("m=%d, alpha=%g", m, alpha),
			XLabel: "replicas per task (m/k), log scale",
			YLabel: "guaranteed competitive ratio",
			LogX:   true,
			Width:  64, Height: 16,
		}); err != nil {
			return err
		}

		tb := report.NewTable("replicas (m/k)", "k groups", "LS-Group guarantee")
		for _, pt := range seriesByName(series, "LS-Group").Points {
			tb.AddRow(int(pt.X), m/int(pt.X), pt.Y)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "LPT-NoChoice (1 replica)  guarantee: %.4g\n",
			seriesByName(series, "LPT-NoChoice").Points[0].Y)
		fmt.Fprintf(w, "Lower bound  (1 replica)  guarantee: %.4g\n",
			seriesByName(series, "LowerBound").Points[0].Y)
		fmt.Fprintf(w, "LPT-NoRestriction (m replicas)     : %.4g\n",
			seriesByName(series, "LPT-NoRestriction").Points[0].Y)
		fmt.Fprintf(w, "Graham LS (m replicas)             : %.4g\n",
			seriesByName(series, "Graham-LS").Points[0].Y)
		if r, ok := bounds.ReplicasToBeatNoReplication(m, alpha); ok {
			fmt.Fprintf(w, "replicas to beat ANY no-replication algorithm: %d\n\n", r)
		} else {
			fmt.Fprintf(w, "no replication level beats the Th.1 lower bound at this α\n\n")
		}
	}
	w.attach("fig3.csv", csv.WriteCSV)
	fmt.Fprintln(w, "Shape checks (paper's observations):")
	fmt.Fprintln(w, " * α=1.1: LS-Group barely improves on LPT-No Choice; big gap to lower bound.")
	fmt.Fprintln(w, " * α=1.5: intermediate group sizes trace a smooth tradeoff.")
	fmt.Fprintln(w, " * α=2.0: <50 replicas beat the best no-replication guarantee;")
	fmt.Fprintln(w, "          ratio falls from >7.5 (1 replica) to <6 with only 3 replicas.")
	return nil
}

func seriesByName(series []bounds.Series, name string) bounds.Series {
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	return bounds.Series{Name: name}
}
