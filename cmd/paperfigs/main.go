// Command paperfigs regenerates the paper's tables and figures (plus
// the empirical extension experiments). Reports go to stdout; with
// -out DIR each experiment's report is also written to DIR/<id>.txt
// and the artifacts it attached (CSV series, SVG figures) beside it.
//
// Experiments render concurrently (bounded by -workers) into private
// buffers and are printed in ID order, so stdout is byte-identical to
// a sequential run. Profiling and observability flags:
//
//	-cpuprofile f   write a pprof CPU profile to f
//	-memprofile f   write a pprof heap profile to f on exit
//	-stats          print internal counters/timers to stderr on exit
//
// Examples:
//
//	paperfigs -exp all
//	paperfigs -exp fig3,fig6 -out out/
//	paperfigs -exp e2 -quick -stats
//	paperfigs -exp all -cpuprofile cpu.pprof -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id(s), comma separated, or all (ids: "+idList()+")")
		outDir     = flag.String("out", "", "also write per-experiment artifacts to this directory")
		quick      = flag.Bool("quick", false, "reduced trial counts (for smoke tests)")
		seed       = flag.Uint64("seed", 0, "seed offset (0 = published outputs)")
		workers    = flag.Int("workers", 0, "max concurrent experiments/trials (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write CPU profile to file")
		memprofile = flag.String("memprofile", "", "write heap profile to file on exit")
		stats      = flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	)
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	prof := obs.Profile{Prog: "paperfigs", CPU: *cpuprofile, Mem: *memprofile, Stats: *stats}
	err := prof.Run(os.Stderr, func() error { return run(*exp, *outDir, opts) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func idList() string {
	s := ""
	for i, id := range experiments.IDs() {
		if i > 0 {
			s += " "
		}
		s += id
	}
	return s
}

func run(exp, outDir string, opts experiments.Options) error {
	var list []experiments.Experiment
	if exp == "all" {
		list = experiments.All()
	} else {
		for _, id := range strings.Split(exp, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			list = append(list, e)
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}

	// RunList renders concurrently and prints in request order; with
	// -out each report and its artifacts are saved as they are printed.
	var keep func(experiments.Rendered) error
	if outDir != "" {
		keep = func(r experiments.Rendered) error {
			if err := os.WriteFile(filepath.Join(outDir, r.ID()+".txt"), r.Report, 0o644); err != nil {
				return err
			}
			if r.Err != nil {
				return nil // a failed run's artifacts are not worth keeping
			}
			for _, a := range r.Artifacts {
				if err := writeFile(filepath.Join(outDir, a.Name), a.Write); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return experiments.RunList(os.Stdout, list, opts, keep)
}

func writeFile(path string, gen func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = gen(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
