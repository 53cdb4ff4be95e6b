// Command bench is the repository's benchmark: six named workloads
// over the two-phase library and the socket-level serving stack, every
// output checked, every metric printed by name. See README.md beside
// this file for why each workload exists and what each metric means.
//
// One workload, as the benchmark driver runs it (the last line of
// standard output is the result object BENCHMARK.json describes):
//
//	go run ./cmd/bench --workload serve-small --seed 1 --seconds 15 --trace 0
//
// All six, each in a process of its own, as a table:
//
//	go run ./cmd/bench -seed 1            # end-to-end metrics
//	go run ./cmd/bench -seed 1 -trace 1   # and the traced per-layer metrics
//
// -smoke runs all six in this process at toy sizes with the output
// checks on; go test runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object; empty runs all six")
		seed         = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "run all six workloads in-process at toy sizes, checks on")
		traceOut     = flag.String("trace-out", ".bench_build/trace", "directory a traced run writes its spans to; empty keeps them in memory only")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	case !(*seconds > 0):
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	case *smoke:
		err = runSmoke(ctx, os.Stdout, *seed)
	case *workloadName != "":
		err = runOne(ctx, os.Stdout, *workloadName, *seed, *seconds, *trace == 1, *traceOut)
	default:
		err = runAll(ctx, os.Stdout, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchProcs is the processor count the benchmark runs on: every loop
// uses at most this many client goroutines and connections.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// wireMetric is one metric of the result object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResultObject is the last line a single-workload run prints.
type wireResultObject struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// runReport is the line before it: who measured, how sure, and what
// went wrong, for the table and for anyone reading a log.
type runReport struct {
	Workload     string         `json:"workload"`
	Traced       bool           `json:"traced"`
	Fingerprint  fingerprint    `json:"fingerprint"`
	Samples      map[string]int `json:"samples"`
	Invalid      []string       `json:"invalid,omitempty"`
	FirstFailure string         `json:"first_failure,omitempty"`
}

// resultObject picks the mode's metric set out of a result. Every
// end-to-end metric must have been computed and be non-zero; a
// per-layer metric a workload has no use for reads 0.
func resultObject(res *result, traced bool) (wireResultObject, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := wireResultObject{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]wireMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !traced && (!ok || v == 0) {
			return out, fmt.Errorf("end-to-end metric %s was not computed or is 0", d.Name)
		}
		out.Metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// runOne runs one workload in this process and prints the report line
// and, last, the result object.
func runOne(ctx context.Context, w io.Writer, name string, seed uint64, seconds float64, traced bool, traceDir string) error {
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	procs := benchProcs()
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{seed: seed, seconds: seconds, trace: traced, sizes: fullSizes, rounds: fullRounds, clients: procs}
	if traced && traceDir != "" {
		cfg.traceOut = traceDir + "/" + name + ".csv"
	}
	res, err := wl.run(ctx, cfg)
	if err != nil {
		return err
	}
	obj, err := resultObject(res, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(runReport{
		Workload: name, Traced: traced, Fingerprint: takeFingerprint(seed, seconds, wl.nominalS),
		Samples: res.samples, Invalid: res.invalid, FirstFailure: res.firstFailure,
	}); err != nil {
		return err
	}
	return enc.Encode(obj)
}

// runSmoke runs every workload once, briefly, at toy sizes in this
// process, traced and untraced, and fails on any failed output check.
// It exists so the tier-1 tests exercise the whole harness.
func runSmoke(ctx context.Context, w io.Writer, seed uint64) error {
	for _, wl := range slices.Concat(workloads, handRun) {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: seed, seconds: 0.2, trace: traced, sizes: smokeSizes, rounds: 2, clients: 2}
			start := time.Now()
			res, err := wl.run(ctx, cfg)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d checks failed, first: %s", wl.Name, res.failed, res.attempted, res.firstFailure)
			}
			if _, err := resultObject(res, traced); err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			fmt.Fprintf(w, "smoke %-15s traced=%-5v ok: %d checked in %v\n", wl.Name, traced, res.attempted, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
