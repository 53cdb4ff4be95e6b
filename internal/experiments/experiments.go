// Package experiments regenerates every table and figure of the paper
// plus the empirical extension experiments listed in DESIGN.md. Each
// experiment is a registry row — an id, a title and a run function —
// that writes a human-readable report, and the CSV and SVG artifacts
// that come from the same computation, to a Sink; cmd/paperfigs drives
// them and saves both.
//
// # Parallel execution and determinism
//
// The harness is parallel at two levels: RunList renders independent
// experiments concurrently into private buffers and stitches them in
// list order, and each empirical experiment fans its independent
// trials out through the one helper, Trials (trials.go; cmd/sweep's
// emp mode uses it too). Reports are nevertheless byte-identical to a
// fully sequential run (Options.Workers = 1) for the same Options, and
// Trials is the whole implementation of why: it pre-draws every
// trial's RNG seeds from the cell's stream in the exact sequential draw
// order before fanning out, lands results at their trial index, and
// hands them back for aggregation in index order (column is the scalar
// fold). Wall-clock text (e5) is the only intentionally
// non-deterministic output.
//
// # The paper's bounds as an oracle
//
// Every closed-batch, failure-free run a trial makes with a strategy
// that states a guarantee (algo.Algorithm.Guarantee, Theorems 2–4;
// Theorems 5–8 for SABO_Δ/ABO_Δ) is checked against it on the spot —
// trial.bounded and its siblings, all through bounds.Holds — and a
// violation fails the experiment with the trial's seeds in the error.
// EXPERIMENTS.md says which runs are in scope.
//
// IDs lists what is registered: the paper's artifacts are table1,
// table2 and fig1–fig6; e1–e11 are the empirical extensions (the paper
// proves but never measures; these exercise the full simulator stack).
// Each run function's comment says what it reproduces.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
)

// Experiment is one reproducible artifact: a registry row.
type Experiment struct {
	id, title string
	run       func(w *Sink, opts Options) error
}

// ID is the registry key (e.g. "fig3").
func (e Experiment) ID() string { return e.id }

// Title is a one-line description.
func (e Experiment) Title() string { return e.title }

// Run writes the report to w; the artifacts go unrendered. Quick mode
// shrinks trial counts so the full suite stays test-friendly.
func (e Experiment) Run(w io.Writer, opts Options) error {
	return e.run(&Sink{Writer: w}, opts)
}

// Sink is what an experiment writes to: the text report through the
// embedded Writer and, from the same computation, its named artifacts.
type Sink struct {
	io.Writer
	// Artifacts are the attached files in attach order.
	Artifacts []Artifact
}

// Artifact is one machine-readable file of an experiment: a CSV series
// or an SVG figure, named as cmd/paperfigs saves it ("fig3a.svg").
// Write renders it from what the run computed, so an artifact nobody
// saves costs nothing.
type Artifact struct {
	Name  string
	Write func(io.Writer) error
}

// attach files one artifact under name.
func (s *Sink) attach(name string, write func(io.Writer) error) {
	s.Artifacts = append(s.Artifacts, Artifact{Name: name, Write: write})
}

// Options tunes experiment execution.
type Options struct {
	// Quick reduces instance sizes and trial counts (used by tests).
	Quick bool
	// Seed shifts the deterministic RNG streams; 0 selects the
	// default, so published outputs stay bit-identical.
	Seed uint64
	// Workers caps the concurrency of the harness: the number of
	// trial workers inside each experiment and the number of
	// experiments RunList renders at once. 0 selects GOMAXPROCS; 1
	// forces fully sequential execution. Reports are byte-identical
	// for every value.
	Workers int
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(id, title string, run func(w *Sink, opts Options) error) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{id: id, title: title, run: run}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns the experiments in ID order.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// Rendered is one experiment after its run: the report and artifacts
// it wrote into private buffers, and its error. A failed run keeps the
// partial report it got out.
type Rendered struct {
	Experiment
	Report    []byte
	Artifacts []Artifact
	Err       error
}

// RunList renders the experiments concurrently (up to opts.Workers at
// once), each into private buffers under its own experiment.<id>
// timer, and stitches the reports into w in list order under banners.
// keep, when non-nil, is handed each experiment right after its report
// is written, to save what it wants of it. The stitched output is
// byte-identical to a sequential run, and — as in the sequential
// semantics — the first failing experiment in list order terminates
// the output after its partial report.
func RunList(w io.Writer, list []Experiment, opts Options, keep func(Rendered) error) error {
	results := par.Map(len(list), opts.Workers, func(i int) Rendered {
		var buf bytes.Buffer
		sink := Sink{Writer: &buf}
		//lint:ignore obsnames experiment IDs are a fixed compile-time set, so one timer per experiment stays bounded
		stop := obs.GetTimer("experiment." + list[i].id).Start()
		err := list[i].run(&sink, opts)
		stop()
		return Rendered{Experiment: list[i], Report: buf.Bytes(), Artifacts: sink.Artifacts, Err: err}
	})
	for _, r := range results {
		fmt.Fprintf(w, "==================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", r.id, r.title)
		fmt.Fprintf(w, "==================================================================\n")
		if _, err := w.Write(r.Report); err != nil {
			return err
		}
		if keep != nil {
			if err := keep(r); err != nil {
				return err
			}
		}
		if r.Err != nil {
			return fmt.Errorf("experiments: %s: %w", r.id, r.Err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunAll is RunList over every registered experiment, in ID order.
func RunAll(w io.Writer, opts Options) error {
	return RunList(w, All(), opts, nil)
}
