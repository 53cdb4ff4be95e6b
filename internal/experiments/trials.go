package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/task"
)

// trial is what one fanned-out trial is handed: its index and its
// seeds, by convention the workload's first and the perturbation's
// next.
type trial struct {
	index int
	seeds []uint64
}

// Trials is the one seed → fan-out → fold of the repository, the
// determinism contract of the package comment in code: it draws every
// trial's seeds (draws each) from src in trial order before anything
// runs, runs the n trials on workers workers (0 = GOMAXPROCS), and
// returns their results at their trial index — or the error of the
// first failing trial in that order, whichever trial failed first on
// the clock. The output is the same for every worker count.
func Trials[T any](src *rng.Source, n, draws, workers int, run func(index int, seeds []uint64) (T, error)) ([]T, error) {
	seeds := make([]uint64, n*draws)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	errs := make([]error, n)
	outs := par.Map(n, workers, func(i int) T {
		out, err := run(i, seeds[i*draws:(i+1)*draws])
		errs[i] = err
		return out
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// trials is Trials on opts.Workers, each trial handed as a trial.
func trials[T any](src *rng.Source, n, draws int, opts Options, run func(t trial) (T, error)) ([]T, error) {
	return Trials(src, n, draws, opts.Workers, func(index int, seeds []uint64) (T, error) {
		return run(trial{index: index, seeds: seeds})
	})
}

// column folds one scalar per trial, in trial order, into a summary.
func column[T any](outs []T, pick func(T) float64) stats.Summary {
	xs := make([]float64, len(outs))
	for i, out := range outs {
		xs[i] = pick(out)
	}
	return stats.Summarize(xs)
}

// bracket is the cheap bracket on C* the experiments that execute
// strategies directly score against: the best closed-form lower bound,
// which their printed ratios divide by, and LPT's makespan on the
// actual times, the upper bound their runs are checked with.
func bracket(in *task.Instance) (lower, upper float64) {
	actuals := in.Actuals()
	upper, _ = opt.LPT(actuals, in.M)
	return opt.LowerBound(actuals, in.M), upper
}

// holds is the oracle every check below ends in: value, a makespan or
// a memory peak, must stay within rho of upper, an upper bound on its
// optimum. The error names the trial's seeds, which rebuild the
// instance.
func (t trial) holds(what string, value, rho, upper float64) error {
	if bounds.Holds(value, rho, upper) {
		return nil
	}
	return fmt.Errorf("experiments: guarantee violated: %s %.9g > ρ·upper = %.9g·%.9g (trial %d, seeds %v)",
		what, value, rho, upper, t.index, t.seeds)
}

// bounded checks a closed-batch, failure-free run of a on in against
// the bound a states for itself, if it states one. alpha is the factor
// the actual times stay within — in.Alpha, except where an experiment
// perturbed past it — and upper any upper bound on C*.
func (t trial) bounded(a algo.Algorithm, in *task.Instance, alpha, makespan, upper float64) error {
	rho, ok := a.Guarantee(in.M, alpha)
	if !ok {
		return nil
	}
	return t.holds(a.Name()+" makespan", makespan, rho, upper)
}

// scored is bounded for a run core already scored: the outcome carries
// its strategy's bound (NaN when none) and its bracket on C*.
func (t trial) scored(out *core.Outcome) error {
	if math.IsNaN(out.Guarantee) {
		return nil
	}
	return t.holds(out.Algorithm+" makespan", out.Makespan, out.Guarantee, out.Optimum.Upper)
}
