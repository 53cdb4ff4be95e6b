package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// fingerprint says where and how a run was measured; every report
// carries it, so two sets of numbers can be told apart before they are
// compared.
type fingerprint struct {
	Commit       string  `json:"commit"`
	Seed         uint64  `json:"seed"`
	CPUModel     string  `json:"cpu_model"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	WindowS      float64 `json:"window_s"`
	WindowFactor float64 `json:"window_factor"` // of the window the issue asked for
}

func takeFingerprint(seed uint64, seconds, nominalS float64) fingerprint {
	return fingerprint{
		Commit: commit(), Seed: seed, CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WindowS: seconds, WindowFactor: ratio(seconds, nominalS),
	}
}

// commit is the revision the binary was built from, as the toolchain
// stamped it; a checkout that is no repository has none.
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// childRun is what one re-executed single-workload run printed.
type childRun struct {
	report runReport
	object wireResultObject
}

// runChild re-executes this binary for one workload, so resident
// memory, the optimum memo and the counter registry start clean.
func runChild(ctx context.Context, name string, seed uint64, seconds float64, traced bool, traceDir string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-trace-out", traceDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: printed %d lines, want the report and the result", name, len(lines))
	}
	run := &childRun{}
	if err := json.Unmarshal(lines[len(lines)-2], &run.report); err != nil {
		return nil, fmt.Errorf("%s: report line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &run.object); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return run, nil
}

// runAll runs the six workloads one process each and prints every
// metric by name with its unit, sample count and regression bound. It
// fails when any output check failed.
func runAll(ctx context.Context, w io.Writer, seed uint64, seconds float64, traced bool, traceDir string) error {
	failed := 0
	for i, wl := range workloads {
		run, err := runChild(ctx, wl.Name, seed, seconds, false, traceDir)
		if err != nil {
			return err
		}
		if i == 0 {
			f := run.report.Fingerprint
			fmt.Fprintf(w, "commit %s  seed %d  cpu %q  nproc %d  GOMAXPROCS %d  %s  window %gs\n",
				f.Commit, f.Seed, f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.WindowS)
		}
		fmt.Fprintf(w, "\n== %s (window x%.2f of the nominal %gs) ==\n", wl.Name, run.report.Fingerprint.WindowFactor, wl.nominalS)
		printRun(w, run, endToEnd)
		failed += run.object.Failed
		if traced {
			run, err := runChild(ctx, wl.Name, seed, seconds, true, traceDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "-- traced --\n")
			printRun(w, run, perLayer)
			failed += run.object.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	return nil
}

// printRun prints one run's metrics in the order of defs, which is
// sorted by name. A run with validity findings prints them first: its
// numbers are shown for diagnosis, not as measurements.
func printRun(w io.Writer, run *childRun, defs []metricDef) {
	fmt.Fprintf(w, "checked %d, failed %d", run.object.Attempted, run.object.Failed)
	if run.report.FirstFailure != "" {
		fmt.Fprintf(w, " (first: %s)", run.report.FirstFailure)
	}
	fmt.Fprintln(w)
	for _, why := range run.report.Invalid {
		fmt.Fprintf(w, "INVALID, the numbers below are for diagnosis only: %s\n", why)
	}
	for _, d := range defs {
		m := run.object.Metrics[d.Name]
		if m.Value == 0 && d.Bound == 0 {
			continue // a per-layer metric this workload has no use for
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if n, ok := run.report.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%-8d", n)
		} else {
			fmt.Fprintf(w, " %10s", "")
		}
		if d.Bound > 0 {
			fmt.Fprintf(w, " %s is better, bound %g%%", d.Better, d.Bound*100)
		}
		fmt.Fprintln(w)
	}
}
