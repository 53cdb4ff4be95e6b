// Command uncertsched runs one scheduling algorithm on one workload
// and reports the placement, the executed schedule, and the measured
// competitive ratio against the offline optimum estimate.
//
// Examples:
//
//	uncertsched -algo ls-group:4 -workload mapreduce -n 200 -m 8 -alpha 1.5 -model lognormal
//	uncertsched -algo lpt-norestriction -in instance.json -gantt
//	uncertsched -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func main() {
	var (
		algoName = flag.String("algo", "lpt-norestriction", "algorithm (see -list)")
		wlName   = flag.String("workload", "uniform", "workload generator (see -list)")
		inFile   = flag.String("in", "", "read instance JSON instead of generating a workload")
		n        = flag.Int("n", 100, "number of tasks")
		m        = flag.Int("m", 8, "number of machines")
		alpha    = flag.Float64("alpha", 1.5, "uncertainty factor (>= 1)")
		param    = flag.Float64("param", 0, "workload shape parameter (0 = default)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		model    = flag.String("model", "uniform", "uncertainty model (see -list)")
		gantt    = flag.Bool("gantt", false, "render an ASCII Gantt chart")
		svgFile  = flag.String("svg", "", "write the schedule as an SVG Gantt chart to this file")
		list     = flag.Bool("list", false, "list algorithms, workloads and models")
		quiet    = flag.Bool("q", false, "print only the makespan (not with -gantt or -trace)")
		compare  = flag.Bool("compare", false, "run every replication strategy and print a comparison table")
		traceN   = flag.Int("trace", 0, "print the first N simulation events")
	)
	flag.Parse()

	if *list {
		fmt.Println("algorithms:", algo.Names())
		fmt.Println("workloads: ", workload.Names())
		fmt.Println("models:    ", uncertainty.Names())
		return
	}

	var err error
	if *compare {
		err = runCompare(os.Stdout, *wlName, *inFile, *n, *m, *alpha, *param, *seed, *model)
	} else {
		err = run(os.Stdout, *algoName, *wlName, *inFile, *n, *m, *alpha, *param, *seed,
			*model, *gantt, *quiet, *svgFile, *traceN)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uncertsched:", err)
		os.Exit(1)
	}
}

// loadInstance builds the problem instance from a JSON file or a
// generated workload plus perturbation model.
func loadInstance(wlName, inFile string, n, m int, alpha, param float64,
	seed uint64, model string) (*task.Instance, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in, err := task.Read(f)
		if err != nil {
			return nil, err
		}
		return in, in.Validate(true)
	}
	in, err := workload.New(workload.Spec{
		Name: wlName, N: n, M: m, Alpha: alpha, Seed: seed, Param: param,
	})
	if err != nil {
		return nil, err
	}
	mdl, err := uncertainty.New(model)
	if err != nil {
		return nil, err
	}
	mdl.Perturb(in, nil, rng.New(seed+1))
	return in, in.Validate(true)
}

// runCompare executes every strategy (no replication → everywhere,
// plus the oracle) on the same instance and prints a ranking table.
func runCompare(w io.Writer, wlName, inFile string, n, m int, alpha, param float64,
	seed uint64, model string) error {
	in, err := loadInstance(wlName, inFile, n, m, alpha, param, seed, model)
	if err != nil {
		return err
	}
	names := []string{"lpt-nochoice", "ls-norestriction", "lpt-norestriction", "oracle-lpt"}
	for _, k := range bounds.Divisors(in.M) {
		if k != 1 && k != in.M {
			names = append(names, fmt.Sprintf("ls-group:%d", k))
		}
	}
	var r core.Runner
	var est opt.Result // every run scores against the same optimum
	tb := report.NewTable("algorithm", "replicas", "makespan", "ratio (ub)")
	for _, name := range names {
		a, err := algo.New(name)
		if err != nil {
			return err
		}
		out, err := r.RunAlgorithm(in, a, 0)
		if err != nil {
			return err
		}
		est = out.Optimum
		ratio := "n/a"
		if est.Lower > 0 {
			ratio = fmt.Sprintf("%.4g", out.RatioUpper)
		}
		tb.AddRow(out.Algorithm, out.ReplicasPerTask, out.Makespan, ratio)
	}
	fmt.Fprintf(w, "instance : %v\n", in)
	fmt.Fprintf(w, "optimum  : C* in [%.6g, %.6g] (%s)\n\n", est.Lower, est.Upper, est.Method)
	return tb.Render(w)
}

func run(w io.Writer, algoName, wlName, inFile string, n, m int, alpha, param float64,
	seed uint64, model string, gantt, quiet bool, svgFile string, traceN int) error {
	// -q prints the makespan alone, so a flag asking for more output
	// contradicts it; -svg writes a file and stays legal.
	switch {
	case quiet && gantt:
		return errors.New("-q and -gantt contradict: -q prints only the makespan")
	case quiet && traceN > 0:
		return errors.New("-q and -trace contradict: -q prints only the makespan")
	}
	a, err := algo.New(algoName)
	if err != nil {
		return err
	}
	in, err := loadInstance(wlName, inFile, n, m, alpha, param, seed, model)
	if err != nil {
		return err
	}

	var sc algo.Scratch
	res, err := sc.Execute(in, a)
	if err != nil {
		return err
	}
	if quiet {
		fmt.Fprintf(w, "%g\n", res.Makespan)
		return writeSVG(w, res, in, svgFile, true)
	}

	fmt.Fprintf(w, "instance : %v\n", in)
	fmt.Fprintf(w, "algorithm: %s\n", res.Algorithm)
	fmt.Fprintf(w, "placement: max %d replicas/task, %d replicas total\n",
		res.Placement.MaxReplication(), res.Placement.TotalReplicas())
	fmt.Fprintf(w, "schedule : %s\n", res.Schedule.Summary())

	out := core.Score(in, a, res)
	est := out.Optimum
	fmt.Fprintf(w, "optimum  : C* in [%.6g, %.6g] (%s)\n", est.Lower, est.Upper, est.Method)
	if est.Lower > 0 {
		fmt.Fprintf(w, "ratio    : C/C* in [%.4g, %.4g]\n", out.RatioLower, out.RatioUpper)
	}
	if gantt {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Schedule.Gantt(72))
	}
	if traceN > 0 {
		printTrace(w, sim.TraceOf(res.Schedule), traceN)
	}
	return writeSVG(w, res, in, svgFile, false)
}

// printTrace prints the first limit events of a run's trace.
func printTrace(w io.Writer, trace []sim.Event, limit int) {
	fmt.Fprintf(w, "\ntrace (%d of %d events):\n", min(limit, len(trace)), len(trace))
	for _, ev := range trace[:min(limit, len(trace))] {
		fmt.Fprintf(w, "  t=%-10.4g %-6s task %-4d machine %d\n", ev.Time.Seconds(), ev.Kind, ev.Task, ev.Machine)
	}
}

func writeSVG(w io.Writer, res *algo.Result, in *task.Instance, svgFile string, quiet bool) error {
	if svgFile == "" {
		return nil
	}
	f, err := os.Create(svgFile)
	if err != nil {
		return err
	}
	err = res.Schedule.WriteSVG(f, fmt.Sprintf("%s on %v", res.Algorithm, in))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(w, "svg      : wrote %s\n", svgFile)
	}
	return nil
}
