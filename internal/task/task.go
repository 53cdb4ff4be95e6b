// Package task defines the problem model of the paper: a set J of n
// independent tasks to be scheduled on a set M of m identical machines,
// where the scheduler knows only an estimate p̃_j of each task's actual
// processing time p_j, together with a multiplicative uncertainty factor
// α ≥ 1 such that
//
//	p̃_j/α ≤ p_j ≤ α·p̃_j.      (Equation 1 of the paper)
//
// An Instance carries both the estimated and the actual processing
// times. Phase-1 (placement) and phase-2 (dispatch) algorithms must only
// read the estimates; the simulator reveals a task's actual time when it
// completes, implementing the semi-clairvoyant model. The actual times
// are stored in the instance so that experiments can score schedules
// after the fact.
//
// For the memory-aware model each task additionally has a size s_j: the
// memory its data occupies on every machine holding a replica.
package task

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/tick"
)

// Task is a single unit of work.
type Task struct {
	// ID identifies the task; within an Instance it equals the task's
	// index in Tasks.
	ID int
	// Estimate is p̃_j, the processing time known before execution.
	Estimate float64
	// Actual is p_j, revealed only at completion. The simulator uses it
	// to advance time; placement and dispatch policies must not read it.
	Actual float64
	// Size is s_j, the memory footprint of the task's data (memory-aware
	// model). Zero when the replication-bound model is used.
	Size float64
}

// Instance is one problem instance.
type Instance struct {
	// Tasks is the task set J, indexed by Task.ID.
	Tasks []Task
	// M is the number of machines m.
	M int
	// Alpha is the uncertainty factor α ≥ 1 of Equation 1.
	Alpha float64
}

// Common instance-validation errors.
var (
	ErrNoMachines  = errors.New("task: instance has no machines")
	ErrNoTasks     = errors.New("task: instance has no tasks")
	ErrBadAlpha    = errors.New("task: alpha must be >= 1")
	ErrBadEstimate = errors.New("task: estimates must be positive and finite")
	ErrBadActual   = errors.New("task: actual time outside [estimate/alpha, alpha*estimate]")
	ErrBadSize     = errors.New("task: sizes must be non-negative and finite")
	ErrBadID       = errors.New("task: task ID must equal its index")
	ErrActualUnset = errors.New("task: actual processing time not set")
	ErrOverflow    = errors.New("task: processing times overflow float64")
	ErrTickRange   = errors.New("task: actual time outside the simulator's nanotick range (under 2^63 ns, about 292 years)")
)

// CheckMachines centralizes the machine-count check (m ≥ 1) so that
// every entry point — the serving layer, the CLI sweeps, and Validate
// itself — rejects bad parameters with the same error.
func CheckMachines(m int) error {
	if m <= 0 {
		return fmt.Errorf("%w: got %d", ErrNoMachines, m)
	}
	return nil
}

// CheckAlpha centralizes the uncertainty-factor check: α must be a
// finite number ≥ 1.
func CheckAlpha(alpha float64) error {
	if alpha < 1 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return fmt.Errorf("%w: got %v", ErrBadAlpha, alpha)
	}
	return nil
}

// N returns the number of tasks n.
func (in *Instance) N() int { return len(in.Tasks) }

// Validate checks the structural invariants of the instance: machine
// and task counts, α ≥ 1, positive finite estimates, IDs matching
// indices, non-negative sizes, and — when withActuals is true — that
// every actual time satisfies Equation 1.
//
// It also rejects instances whose times are individually finite but
// overflow in aggregate: Σ p̃_j (and Σ p_j when actuals are checked)
// must stay below +Inf, and each task's Equation-1 interval bound
// α·p̃_j must be representable. Such instances would otherwise
// propagate +Inf through load accounting, makespans, and optimum
// estimates and surface as NaN comparisons deep inside the solvers.
//
// Checked actuals must also be representable in the simulator's
// fixed-point time (tick.FromSeconds): phase 2 cannot execute a
// duration it cannot express, and refusing it here gives every entry
// point one typed error (ErrTickRange) instead of a mid-simulation
// failure.
func (in *Instance) Validate(withActuals bool) error {
	if err := CheckMachines(in.M); err != nil {
		return err
	}
	if len(in.Tasks) == 0 {
		return ErrNoTasks
	}
	if err := CheckAlpha(in.Alpha); err != nil {
		return err
	}
	sumEst, sumAct := 0.0, 0.0
	longest := 0 // index of the largest actual
	for i, t := range in.Tasks {
		if t.ID != i {
			return fmt.Errorf("%w: index %d has ID %d", ErrBadID, i, t.ID)
		}
		if !(t.Estimate > 0) || math.IsInf(t.Estimate, 0) {
			return fmt.Errorf("%w: task %d estimate %v", ErrBadEstimate, i, t.Estimate)
		}
		if math.IsInf(t.Estimate*in.Alpha, 0) {
			return fmt.Errorf("%w: task %d estimate %v times alpha %v", ErrOverflow, i, t.Estimate, in.Alpha)
		}
		if t.Size < 0 || math.IsNaN(t.Size) || math.IsInf(t.Size, 0) {
			return fmt.Errorf("%w: task %d size %v", ErrBadSize, i, t.Size)
		}
		sumEst += t.Estimate
		if withActuals {
			if err := in.validateActual(t); err != nil {
				return err
			}
			sumAct += t.Actual
			if t.Actual > in.Tasks[longest].Actual {
				longest = i
			}
		}
	}
	if math.IsInf(sumEst, 0) {
		return fmt.Errorf("%w: total estimate is +Inf", ErrOverflow)
	}
	if withActuals && math.IsInf(sumAct, 0) {
		return fmt.Errorf("%w: total actual time is +Inf", ErrOverflow)
	}
	if withActuals {
		if _, err := tick.FromSeconds(in.Tasks[longest].Actual); err != nil {
			return fmt.Errorf("%w: task %d actual %v", ErrTickRange, longest, in.Tasks[longest].Actual)
		}
	}
	return nil
}

func (in *Instance) validateActual(t Task) error {
	if !(t.Actual > 0) || math.IsInf(t.Actual, 0) {
		return fmt.Errorf("%w: task %d actual %v", ErrActualUnset, t.ID, t.Actual)
	}
	// A small relative tolerance absorbs floating-point rounding when
	// actuals were produced by multiplying estimates by a factor.
	const tol = 1e-9
	lo := t.Estimate / in.Alpha
	hi := t.Estimate * in.Alpha
	if t.Actual < lo*(1-tol) || t.Actual > hi*(1+tol) {
		return fmt.Errorf("%w: task %d actual %v outside [%v, %v] (alpha=%v)",
			ErrBadActual, t.ID, t.Actual, lo, hi, in.Alpha)
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{M: in.M, Alpha: in.Alpha, Tasks: make([]Task, len(in.Tasks))}
	copy(out.Tasks, in.Tasks)
	return out
}

// TotalEstimate returns Σ p̃_j.
func (in *Instance) TotalEstimate() float64 {
	sum := 0.0
	for _, t := range in.Tasks {
		sum += t.Estimate
	}
	return sum
}

// TotalSize returns Σ s_j.
func (in *Instance) TotalSize() float64 {
	sum := 0.0
	for _, t := range in.Tasks {
		sum += t.Size
	}
	return sum
}

// New builds an instance from parallel slices of estimates and actuals.
// Sizes are left at zero. It returns an error if the slices disagree in
// length or the result fails validation.
func New(m int, alpha float64, estimates, actuals []float64) (*Instance, error) {
	if len(estimates) != len(actuals) {
		return nil, fmt.Errorf("task: %d estimates but %d actuals", len(estimates), len(actuals))
	}
	in := &Instance{M: m, Alpha: alpha, Tasks: make([]Task, len(estimates))}
	for i := range estimates {
		in.Tasks[i] = Task{ID: i, Estimate: estimates[i], Actual: actuals[i]}
	}
	if err := in.Validate(true); err != nil {
		return nil, err
	}
	return in, nil
}

// NewEstimated builds an instance whose actual times equal the
// estimates (a perfectly clairvoyant instance); perturbation models can
// rewrite the actuals afterwards. New copies both columns into the
// tasks, so the estimates serve as the actuals without a copy.
func NewEstimated(m int, alpha float64, estimates []float64) (*Instance, error) {
	return New(m, alpha, estimates, estimates)
}

// Estimates returns a fresh slice of the estimated processing times.
func (in *Instance) Estimates() []float64 {
	return in.AppendEstimates(make([]float64, 0, len(in.Tasks)))
}

// AppendEstimates appends the estimated processing times to buf and
// returns it, as AppendActuals does for the actual ones.
func (in *Instance) AppendEstimates(buf []float64) []float64 {
	buf = slices.Grow(buf, len(in.Tasks))
	for _, t := range in.Tasks {
		buf = append(buf, t.Estimate)
	}
	return buf
}

// Actuals returns a fresh slice of the actual processing times.
func (in *Instance) Actuals() []float64 {
	return in.AppendActuals(make([]float64, 0, len(in.Tasks)))
}

// AppendActuals appends the actual processing times to buf and returns
// it; the allocation-free sibling of Actuals for trial loops that
// re-score many instances with a recycled buffer.
func (in *Instance) AppendActuals(buf []float64) []float64 {
	for _, t := range in.Tasks {
		buf = append(buf, t.Actual)
	}
	return buf
}

// Sizes returns a fresh slice of the task memory sizes.
func (in *Instance) Sizes() []float64 {
	return in.AppendSizes(make([]float64, 0, len(in.Tasks)))
}

// AppendSizes appends the task memory sizes to buf and returns it, as
// AppendActuals does for the actual times.
func (in *Instance) AppendSizes(buf []float64) []float64 {
	buf = slices.Grow(buf, len(in.Tasks))
	for _, t := range in.Tasks {
		buf = append(buf, t.Size)
	}
	return buf
}

// SetSizes assigns memory sizes to the tasks. It returns an error if
// the slice length does not match the task count or a size is invalid.
func (in *Instance) SetSizes(sizes []float64) error {
	if len(sizes) != len(in.Tasks) {
		return fmt.Errorf("task: %d sizes for %d tasks", len(sizes), len(in.Tasks))
	}
	for i, s := range sizes {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("%w: task %d size %v", ErrBadSize, i, s)
		}
		in.Tasks[i].Size = s
	}
	return nil
}

// String summarizes the instance for logs and error messages.
func (in *Instance) String() string {
	return fmt.Sprintf("instance{n=%d m=%d alpha=%g}", in.N(), in.M, in.Alpha)
}
