package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/report"
)

func init() {
	register("table1", "Table 1: approximation ratios of the replication-bound model", runTable1)
}

// runTable1 reproduces Table 1: the guarantee summary of the
// replication-bound model, evaluated on a concrete (m, α, k) grid so
// the symbolic entries become comparable numbers. The same rows go out
// as table1.csv.
func runTable1(w *Sink, _ Options) error {
	fmt.Fprintln(w, "Symbolic entries (as printed in the paper):")
	fmt.Fprintln(w, "  |M_j|=1    :  C/C* <= 2α²m/(2α²+m−1)            [Th. 2, LPT-No Choice]")
	fmt.Fprintln(w, "               no ratio better than α²m/(α²+m−1)  [Th. 1, lower bound]")
	fmt.Fprintln(w, "  |M_j|=m    :  C/C* <= 1 + (m−1)/m · α²/2        [Th. 3, LPT-No Restriction]")
	fmt.Fprintln(w, "               C/C* <= 2 − 1/m                    [Graham LS]")
	fmt.Fprintln(w, "  |M_j|=m/k  :  C/C* <= kα²/(α²+k−1)(1+(k−1)/m) + (m−k)/m  [Th. 4, LS-Group]")
	fmt.Fprintln(w)

	tb := report.NewTable("m", "alpha", "LB(Th.1)", "NoChoice(Th.2)", "NoRestr(Th.3)", "Graham",
		"Group k=2", "Group k=3", "Group k=m")
	csv := report.NewTable("m", "alpha", "lower_bound", "lpt_no_choice",
		"lpt_no_restriction", "graham_ls", "ls_group_k2", "ls_group_k3", "ls_group_km")
	for _, m := range []int{6, 12, 210} {
		for _, alpha := range []float64{1.1, 1.5, 2.0} {
			row := []any{
				m, alpha,
				bounds.LowerBoundNoReplication(m, alpha),
				bounds.LPTNoChoice(m, alpha),
				bounds.LPTNoRestrictionTheorem(m, alpha),
				bounds.GrahamLS(m),
				bounds.LSGroup(m, 2, alpha),
				bounds.LSGroup(m, 3, alpha),
				bounds.LSGroup(m, m, alpha),
			}
			tb.AddRow(row...)
			csv.AddRow(row...)
		}
	}
	w.attach("table1.csv", csv.WriteCSV)
	return tb.Render(w)
}
