// Package core is the public face of the library: it ties the paper's
// two-phase model together into a small API that plans a data
// placement (phase 1, estimates only), executes the online schedule
// (phase 2, semi-clairvoyant), and scores the outcome against the
// offline optimum and the paper's analytic guarantees.
//
// Quick use:
//
//	in, _ := workload.New(workload.Spec{Name: "uniform", N: 100, M: 8, Alpha: 1.5, Seed: 1})
//	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
//	out, err := core.Run(in, core.Config{Strategy: core.Groups, Groups: 4})
//	fmt.Println(out.Makespan, out.RatioUpper, out.Guarantee)
//
// The replication-bound strategies map to the paper as follows:
//
//	NoReplication       →  LPT-No Choice        (§4, Theorem 2)
//	ReplicateEverywhere →  LPT-No Restriction   (§5, Theorem 3)
//	Groups              →  LS-Group             (§6, Theorem 4)
//
// The memory-aware algorithms SABO_Δ/ABO_Δ are exposed through
// RunMemoryAware.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Strategy selects a replication strategy of the replication-bound
// model.
type Strategy int

// The three strategies of the paper, plus baselines.
const (
	// NoReplication places each task's data on exactly one machine
	// (paper's strategy 1, LPT-No Choice).
	NoReplication Strategy = iota
	// ReplicateEverywhere replicates every task on every machine
	// (strategy 2, LPT-No Restriction).
	ReplicateEverywhere
	// Groups partitions machines into Config.Groups groups and
	// replicates within the assigned group (strategy 3, LS-Group).
	Groups
	// BaselineLS is Graham's List Scheduling over fully replicated
	// data, the paper's 2−1/m baseline.
	BaselineLS
	// Oracle is clairvoyant LPT on actual times; a reference point, not
	// an implementable policy.
	Oracle
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case NoReplication:
		return "no-replication"
	case ReplicateEverywhere:
		return "replicate-everywhere"
	case Groups:
		return "groups"
	case BaselineLS:
		return "baseline-ls"
	case Oracle:
		return "oracle"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config selects and parameterizes a strategy.
type Config struct {
	// Strategy is the replication strategy.
	Strategy Strategy
	// Groups is the number of machine groups k for the Groups
	// strategy; it must divide the instance's machine count.
	Groups int
	// ExactLimit caps the instance size for which the outcome's
	// optimum is computed exactly; 0 selects the default (20 tasks).
	ExactLimit int
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("core: bad config")

// algorithm resolves the configured algorithm.
func (c Config) algorithm() (algo.Algorithm, error) {
	switch c.Strategy {
	case NoReplication:
		return algo.LPTNoChoice(), nil
	case ReplicateEverywhere:
		return algo.LPTNoRestriction(), nil
	case Groups:
		if c.Groups < 1 {
			return nil, fmt.Errorf("%w: Groups strategy needs Groups >= 1, got %d",
				ErrBadConfig, c.Groups)
		}
		return algo.LSGroup(c.Groups), nil
	case BaselineLS:
		return algo.LSNoRestriction(), nil
	case Oracle:
		return algo.OracleLPT(), nil
	default:
		return nil, fmt.Errorf("%w: unknown strategy %v", ErrBadConfig, c.Strategy)
	}
}

// Guarantee returns the paper's competitive-ratio guarantee for the
// configured strategy on an (m, α) system — the strategy's own
// algo.Algorithm.Guarantee — or NaN when none is stated or the
// configuration resolves to no algorithm.
func (c Config) Guarantee(m int, alpha float64) float64 {
	a, err := c.algorithm()
	if err != nil {
		return math.NaN()
	}
	return guarantee(a, m, alpha)
}

// guarantee is a's stated bound in Outcome.Guarantee's NaN-when-unstated
// form.
func guarantee(a algo.Algorithm, m int, alpha float64) float64 {
	if rho, ok := a.Guarantee(m, alpha); ok {
		return rho
	}
	return math.NaN()
}

// Plan is a phase-1 decision bound to the algorithm that made it.
type Plan struct {
	// Placement is the replica-set assignment.
	Placement *placement.Placement
	// Algorithm names the planning algorithm.
	Algorithm string

	algo       algo.Algorithm
	exactLimit int
}

// Outcome is a fully executed and scored run.
type Outcome struct {
	// Algorithm names the executed algorithm.
	Algorithm string
	// Placement is the phase-1 decision.
	Placement *placement.Placement
	// Schedule is the executed phase-2 schedule.
	Schedule *sched.Schedule
	// Makespan is the achieved makespan under actual times.
	Makespan float64
	// Optimum brackets the offline optimal makespan C*_max.
	Optimum opt.Result
	// RatioLower and RatioUpper bracket the empirical competitive
	// ratio Makespan/C*: RatioLower uses the optimum's upper bound,
	// RatioUpper its lower bound.
	RatioLower, RatioUpper float64
	// Guarantee is the analytic bound for the configuration (NaN when
	// none is stated).
	Guarantee float64
	// ReplicasPerTask is the maximum |M_j| of the placement.
	ReplicasPerTask int
}

// NewPlan runs phase 1 only: the placement decision from estimates.
func NewPlan(in *task.Instance, cfg Config) (*Plan, error) {
	a, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	p, err := a.Place(in)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(in); err != nil {
		return nil, err
	}
	return &Plan{Placement: p, Algorithm: a.Name(), algo: a, exactLimit: cfg.ExactLimit}, nil
}

// Execute runs phase 2 on a previously planned placement and scores
// the outcome. The instance's actual times may have been perturbed
// between Plan_ and Execute — that is the intended use for
// adversarial experiments.
func (pl *Plan) Execute(in *task.Instance) (*Outcome, error) {
	var r Runner // fresh state: the returned Outcome is caller-owned
	return r.Execute(pl, in)
}

// Run plans and executes in one call. The returned Outcome is freshly
// allocated and owned by the caller; trial loops that score thousands
// of runs should reuse a Runner instead.
func Run(in *task.Instance, cfg Config) (*Outcome, error) {
	var r Runner // fresh state: the returned Outcome is caller-owned
	return r.Run(in, cfg)
}

// Runner is reusable two-phase pipeline state: the phase-1 placement,
// phase-2 dispatcher and simulator buffers, the scoring scratch, and
// the Outcome itself are recycled between calls, so a Runner executing
// same-shaped trials performs near-zero steady-state heap allocations.
// The experiment harness keeps a pool of Runners and routes every
// trial through one.
//
// Ownership contract: the Outcome returned by Run or Execute — its
// Schedule and Placement included — is owned by the Runner and valid
// only until the Runner's next call. Extract scalar results (Makespan,
// ratios) or copy retained structures before reusing the Runner. A
// Runner is not safe for concurrent use; pool Runners to share across
// goroutines. Results are identical to the package-level Run.
//
// A scored call solves the optimum of the actual times beside the run
// it scores (see RunAlgorithm): a memo miss solves on a goroutine of
// its own, joined before the call returns, so no goroutine outlives the
// call and the Runner itself stays single-goroutine state.
type Runner struct {
	scratch algo.Scratch
	actuals []float64
	out     Outcome
	openOut OpenOutcome
}

// Run plans and executes in one call, reusing the Runner's buffers.
func (r *Runner) Run(in *task.Instance, cfg Config) (*Outcome, error) {
	a, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	return r.RunAlgorithm(in, a, cfg.ExactLimit)
}

// Execute runs phase 2 of a previously planned placement, reusing the
// Runner's buffers; the pooled sibling of Plan.Execute.
func (r *Runner) Execute(pl *Plan, in *task.Instance) (*Outcome, error) {
	return r.RunAlgorithm(in, pl.algo, pl.exactLimit)
}

// RunAlgorithm runs both phases of a — any algo.Algorithm, the
// algo.New registry's included — and scores the run, reusing the
// Runner's buffers. exactLimit caps the instance size for which the
// optimum is solved exactly; 0 selects the default (20 tasks).
//
// The optimum of the actual times is started before the run
// (opt.StartEstimate) and joined after it, on every exit — an error or
// a panic of the run too — so a cold solve runs beside both phases
// instead of after them; a memo hit starts nothing. The instance's
// actual times must not change during the call. The Outcome is the one
// Score gives on the same run.
func (r *Runner) RunAlgorithm(in *task.Instance, a algo.Algorithm, exactLimit int) (*Outcome, error) {
	r.actuals = in.AppendActuals(r.actuals[:0])
	optimum := opt.StartEstimate(r.actuals, in.M, exactLimit)
	defer optimum.Wait()
	res, err := r.scratch.Execute(in, a)
	if err != nil {
		return nil, err
	}
	return r.score(in, a, res, optimum.Wait()), nil
}

// Score scores a run already executed on in — an algo.Scratch Execute
// result of a — exactly as RunAlgorithm scores its own, at the default
// exact limit. The Outcome is freshly allocated and shares
// res's placement and schedule.
func Score(in *task.Instance, a algo.Algorithm, res *algo.Result) *Outcome {
	var r Runner
	return r.score(in, a, res, opt.Estimate(in.Actuals(), in.M, 0))
}

// score is the one scoring of a run: the ratios against the optimum
// bracket of the actual times and a's stated guarantee.
func (r *Runner) score(in *task.Instance, a algo.Algorithm, res *algo.Result, optimum opt.Result) *Outcome {
	r.out = Outcome{
		Algorithm:       res.Algorithm,
		Placement:       res.Placement,
		Schedule:        res.Schedule,
		Makespan:        res.Makespan,
		Optimum:         optimum,
		Guarantee:       guarantee(a, in.M, in.Alpha),
		ReplicasPerTask: res.Placement.MaxReplication(),
	}
	if optimum.Upper > 0 {
		r.out.RatioLower = res.Makespan / optimum.Upper
	}
	if optimum.Lower > 0 {
		r.out.RatioUpper = res.Makespan / optimum.Lower
	}
	return &r.out
}

// OpenConfig parameterizes RunOpenSystem: a strategy configuration
// plus the open-system serving knobs of sim.OpenOptions.
type OpenConfig struct {
	Config
	// Policy selects the replica cancellation policy.
	Policy sim.CancelPolicy
	// CancelCost is the machine-time penalty per cancelled running
	// replica (CancelOnCompletion only).
	CancelCost float64
	// Duration, when non-nil, overrides executed replica durations —
	// the hook for machine-dependent straggler models. Same contract as
	// sim.OpenOptions.Duration.
	Duration func(taskID, machine int) float64
}

// OpenOutcome is an executed open-system run. Unlike Outcome it is not
// scored against the offline makespan optimum: the open-system metric
// is the response-time distribution, which has no single-scalar
// analytic guarantee in the paper's framework.
type OpenOutcome struct {
	// Algorithm names the executed algorithm.
	Algorithm string
	// Placement is the phase-1 decision.
	Placement *placement.Placement
	// Result carries responses, the winning-replica schedule, and the
	// cancellation accounting.
	Result *sim.OpenResult
}

// RunOpenSystem plans a placement with the configured strategy and
// serves the arrival stream through the open-system simulator. The
// returned OpenOutcome is freshly allocated
// and caller-owned; trial loops should reuse a Runner.
func RunOpenSystem(in *task.Instance, arrive []float64, cfg OpenConfig) (*OpenOutcome, error) {
	var r Runner // fresh state: the returned Outcome is caller-owned
	return r.RunOpenSystem(in, arrive, cfg)
}

// RunOpenSystem is the pooled form of the package-level RunOpenSystem;
// the returned OpenOutcome is owned by the Runner and valid only until
// its next call.
func (r *Runner) RunOpenSystem(in *task.Instance, arrive []float64, cfg OpenConfig) (*OpenOutcome, error) {
	a, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	res, err := r.scratch.ExecuteOpen(in, a, arrive, sim.OpenOptions{
		Policy:     cfg.Policy,
		CancelCost: cfg.CancelCost,
		Duration:   cfg.Duration,
	})
	if err != nil {
		return nil, err
	}
	r.openOut = OpenOutcome{
		Algorithm: res.Algorithm,
		Placement: res.Placement,
		Result:    res.Open,
	}
	return &r.openOut, nil
}

// MemoryAwareConfig parameterizes RunMemoryAware.
type MemoryAwareConfig struct {
	// Delta is the Δ threshold (must be positive).
	Delta float64
	// Replicate selects ABO_Δ (replicating time-intensive tasks);
	// false selects the static SABO_Δ.
	Replicate bool
	// Exact uses exact single-objective reference schedules (ρ = 1)
	// instead of LPT; only sensible for small instances.
	Exact bool
}

// MemoryAwareOutcome is the scored result of a bi-objective run.
type MemoryAwareOutcome struct {
	// Result is the raw algorithm output.
	Result *memaware.Result
	// MakespanBound and MemoryBound are the analytic guarantees
	// (absolute values: ratio × optimal estimate's lower bound).
	MakespanRatioBound, MemoryRatioBound float64
	// OptMakespan and OptMemory bracket the single-objective optima.
	OptMakespan, OptMemory opt.Result
}

// optimumColumns recycles RunMemoryAware's two optimum inputs, the
// actual times and the sizes: the memo copies the keys it keeps, so
// neither column outlives the call.
var optimumColumns = sync.Pool{New: func() any { return new([2][]float64) }}

// RunMemoryAware executes SABO_Δ or ABO_Δ and scores it against both
// single-objective optima and the paper's Table 2 guarantees. The
// returned outcome is the caller's; the algorithm's working state and
// the optimum inputs are pooled (see package memaware).
//
// The optimum of the sizes, new to the memo on every instance, is
// started before the algorithm (opt.StartEstimate) and solves beside
// it; the optimum of the actual times is solved on the caller after
// the algorithm (a memo hit when a replication-bound run scored the
// instance first), and then the sizes' solve is joined — on every exit,
// an error of the algorithm too. The instance's actual times and sizes
// must not change during the call.
func RunMemoryAware(in *task.Instance, cfg MemoryAwareConfig) (*MemoryAwareOutcome, error) {
	mc := memaware.Config{Delta: cfg.Delta}
	rho := bounds.LPTOffline(in.M)
	if cfg.Exact {
		mc.Pi1, mc.Pi2 = memaware.ExactMapping, memaware.ExactMapping
		rho = 1
	}
	cols := optimumColumns.Get().(*[2][]float64)
	defer optimumColumns.Put(cols) // deferred first, so it runs after the join
	cols[1] = in.AppendSizes(cols[1][:0])
	memory := opt.StartEstimate(cols[1], in.M, 0)
	defer memory.Wait()
	var res *memaware.Result
	var err error
	if cfg.Replicate {
		res, err = memaware.ABO(in, mc)
	} else {
		res, err = memaware.SABO(in, mc)
	}
	if err != nil {
		return nil, err
	}
	cols[0] = in.AppendActuals(cols[0][:0])
	out := &MemoryAwareOutcome{
		Result:      res,
		OptMakespan: opt.Estimate(cols[0], in.M, 0),
		OptMemory:   memory.Wait(),
	}
	if cfg.Replicate {
		out.MakespanRatioBound = bounds.ABOMakespan(in.M, in.Alpha, cfg.Delta, rho)
		out.MemoryRatioBound = bounds.ABOMemory(in.M, cfg.Delta, rho)
	} else {
		out.MakespanRatioBound = bounds.SABOMakespan(in.Alpha, cfg.Delta, rho)
		out.MemoryRatioBound = bounds.SABOMemory(cfg.Delta, rho)
	}
	return out, nil
}
