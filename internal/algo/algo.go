// Package algo implements the paper's two-phase scheduling algorithms
// for the replication-bound model, plus the classical baselines they
// are measured against:
//
//   - LPT-No Choice (§4, strategy 1): phase 1 places each task's data
//     on a single machine by LPT over the estimates; phase 2 has no
//     freedom. Competitive ratio 2α²m/(2α²+m−1) (Theorem 2).
//   - LPT-No Restriction (§5, strategy 2): phase 1 replicates every
//     task everywhere; phase 2 runs online LPT on estimates.
//     Competitive ratio 1 + (m−1)/m · α²/2 (Theorem 3), and also
//     2 − 1/m by the List Scheduling guarantee.
//   - LS-Group (§6, strategy 3): machines are partitioned into k
//     groups; phase 1 list-schedules tasks onto groups by estimated
//     load; phase 2 list-schedules online within each group.
//     Competitive ratio kα²/(α²+k−1)·(1+(k−1)/m) + (m−k)/m (Theorem 4).
//   - LPT-Group: the LPT-based variant of LS-Group the paper discusses
//     (sorting tasks by estimate in both phases); included to measure
//     the paper's conjecture that it would not improve the guarantee
//     much.
//   - LS-No Choice and LS-No Restriction: Graham List Scheduling
//     baselines without/with full replication.
//
// Every algorithm is split into the paper's two phases. Place consumes
// only estimated processing times. Order exposes the phase-2 priority
// list (also estimate-only); Scratch runs both on the
// semi-clairvoyant simulator.
package algo

import (
	"fmt"

	"repro/internal/keysort"
	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Algorithm is a two-phase scheduling algorithm for the
// replication-bound model.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Place computes the phase-1 data placement from estimates only.
	Place(in *task.Instance) (*placement.Placement, error)
	// Order returns the phase-2 dispatch priority (task IDs, highest
	// priority first), computed from estimates only.
	Order(in *task.Instance) []int
	// Guarantee returns the competitive ratio ρ the paper proves for
	// the algorithm on m machines when every actual time stays within a
	// factor α of its estimate: makespan ≤ ρ·C* (bounds.Holds is the
	// check). ok is false where no bound is stated.
	Guarantee(m int, alpha float64) (rho float64, ok bool)
}

// Result is the outcome of executing an algorithm on an instance.
type Result struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Placement is the phase-1 decision.
	Placement *placement.Placement
	// Schedule is the executed phase-2 schedule.
	Schedule *sched.Schedule
	// Makespan is Schedule.Makespan().
	Makespan float64
}

// OpenResult is the outcome of executing an algorithm's placement in
// the open-system streaming mode: phase 1 places replicas exactly as
// in the batch model, but phase 2 serves an arrival stream and the
// metric is the response-time distribution (see sim.OpenResult).
type OpenResult struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Placement is the phase-1 decision.
	Placement *placement.Placement
	// Open is the simulator output: responses, winning-replica
	// schedule, cancellation accounting.
	Open *sim.OpenResult
}

// Execute runs both phases of the algorithm on the instance and
// verifies the resulting schedule against the placement. The returned
// Result is freshly allocated and owned by the caller; trial loops
// that execute many instances should reuse a Scratch instead.
func Execute(in *task.Instance, a Algorithm) (*Result, error) {
	var s Scratch // fresh state: the returned buffers are caller-owned
	return s.Execute(in, a)
}

// Scratch is reusable two-phase execution state: the phase-1 placement,
// the priority order, and the simulator state are all recycled between
// Execute calls, so a Scratch running same-shaped trials in a loop
// performs near-zero steady-state heap allocations.
//
// Ownership contract: the Result returned by Execute — its Placement
// and Schedule included — is owned by the Scratch and valid only until
// the next Execute call. Callers that retain results must copy them,
// or use the package-level Execute. A Scratch is not safe for
// concurrent use; pool Scratches to share across goroutines. Results
// are identical to the package-level Execute: every reused buffer is
// rebuilt from the inputs before use.
type Scratch struct {
	runner  sim.Runner
	place   placement.Placement
	order   []int
	lpt     lptSorter
	res     Result
	openRes OpenResult
}

// lptSorter computes LPT orders — (key descending, ID ascending), the
// key an estimate or, for the clairvoyant oracle, an actual time — in
// buffers it keeps between calls. The zero value is ready to use.
type lptSorter struct {
	keys  []float64
	sort  keysort.Scratch
	order []int // Oracle-LPT's phase-1 visiting order, the one that is not its phase-2 order
}

// byEstimate writes the LPT priority order into buf (reused when its
// capacity allows) and returns it.
func (l *lptSorter) byEstimate(in *task.Instance, buf []int) []int {
	l.keys = in.AppendEstimates(l.keys[:0])
	return l.sort.OrderDesc(l.keys, buf)
}

// byActual is byEstimate over the actual times.
func (l *lptSorter) byActual(in *task.Instance, buf []int) []int {
	l.keys = in.AppendActuals(l.keys[:0])
	return l.sort.OrderDesc(l.keys, buf)
}

// intoPlacer is implemented by algorithms whose phase-1 decision can
// be written into a reusable placement. order is the algorithm's own
// phase-2 priority order, already computed: every list-scheduling
// placement here but the oracle's visits tasks in exactly that order,
// so a plan sorts once. l is scratch for an algorithm that needs
// another order. Algorithms without the interface fall back to Place,
// which allocates.
type intoPlacer interface {
	placeInto(in *task.Instance, p *placement.Placement, order []int, l *lptSorter) error
}

// orderAppender is implemented by algorithms whose phase-2 priority
// order can be written into a reusable buffer.
type orderAppender interface {
	appendOrder(in *task.Instance, l *lptSorter, buf []int) []int
}

// plan materializes the phase-2 priority order and runs phase 1
// (placement, validated) into the Scratch's buffers. It is the shared
// front half of Execute and ExecuteOpen.
func (s *Scratch) plan(in *task.Instance, a Algorithm) (*placement.Placement, error) {
	if oa, ok := a.(orderAppender); ok {
		s.order = oa.appendOrder(in, &s.lpt, s.order[:0])
	} else {
		s.order = a.Order(in)
	}
	p := &s.place
	if ip, ok := a.(intoPlacer); ok {
		if err := ip.placeInto(in, p, s.order, &s.lpt); err != nil {
			return nil, fmt.Errorf("%s: phase 1: %w", a.Name(), err)
		}
	} else {
		pp, err := a.Place(in)
		if err != nil {
			return nil, fmt.Errorf("%s: phase 1: %w", a.Name(), err)
		}
		p = pp
	}
	if err := p.Validate(in); err != nil {
		return nil, fmt.Errorf("%s: invalid placement: %w", a.Name(), err)
	}
	return p, nil
}

// Execute runs both phases of the algorithm reusing the Scratch's
// buffers; semantics match the package-level Execute. Phase 2 runs on
// the flat simulator (sim.Runner), so reported times are
// nanotick-quantized: ≤ 0.5e-9 s per duration, the quantization Verify
// checks exactly (tick.FromSeconds of each actual time). Phase 2's event
// trace is sim.TraceOf(Result.Schedule).
func (s *Scratch) Execute(in *task.Instance, a Algorithm) (*Result, error) {
	p, err := s.plan(in, a)
	if err != nil {
		return nil, err
	}
	res, err := s.runner.RunSharded(in, p, s.order, sim.FlatOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", a.Name(), err)
	}
	if err := res.Schedule.Verify(in, p); err != nil {
		return nil, fmt.Errorf("%s: infeasible schedule: %w", a.Name(), err)
	}
	s.res = Result{
		Algorithm: a.Name(),
		Placement: p,
		Schedule:  res.Schedule,
		Makespan:  res.Schedule.Makespan(),
	}
	return &s.res, nil
}

// ExecuteOpen runs phase 1 of the algorithm and replays the arrival
// stream through the flat simulator in open mode (sim.Runner,
// sharded by replica-set connectivity), reusing the Scratch's buffers.
// The schedule is not re-verified here: open-mode durations may come
// from opts.Duration, which sched.Verify (actual times only) cannot
// check. The engine's refusals ("sim: …") name the arrival or option
// at fault and are returned as they are, without the algorithm's name.
//
// Ownership matches Execute: the returned OpenResult is valid only
// until the Scratch's next call.
func (s *Scratch) ExecuteOpen(in *task.Instance, a Algorithm, arrive []float64,
	opts sim.OpenOptions) (*OpenResult, error) {
	p, err := s.plan(in, a)
	if err != nil {
		return nil, err
	}
	res, err := s.runner.RunOpenSharded(in, p, s.order, arrive, opts)
	if err != nil {
		return nil, err
	}
	s.openRes = OpenResult{
		Algorithm: a.Name(),
		Placement: p,
		Open:      res,
	}
	return &s.openRes, nil
}

// lptOrder returns task IDs sorted by non-increasing estimate, ties
// broken by ID for determinism.
func lptOrder(in *task.Instance) []int {
	var l lptSorter
	return l.byEstimate(in, nil)
}

// listOrder returns task IDs in input order (Graham's list order).
func listOrder(in *task.Instance) []int {
	return appendListOrder(in, nil)
}

// appendListOrder writes 0..n-1 into buf (reused when its capacity
// allows) and returns it.
func appendListOrder(in *task.Instance, buf []int) []int {
	n := in.N()
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = i
	}
	return buf
}

// minLoadPlacement assigns tasks (visited in the given order) to the
// machine with the least accumulated estimated load, returning
// singleton replica sets. This is List Scheduling on estimates; with
// order = lptOrder it is LPT on estimates.
func minLoadPlacement(in *task.Instance, order []int) *placement.Placement {
	p := placement.New(in.N(), in.M)
	minLoadPlacementInto(in, order, p)
	return p
}

// minLoadPlacementInto is minLoadPlacement writing into a reusable
// placement. The winner tree over (load, machine) picks the same
// machine a linear scan does — least load, lowest index on ties — in
// log2 m branch-free matches instead of O(m) per task.
func minLoadPlacementInto(in *task.Instance, order []int, p *placement.Placement) {
	p.Reset(in.N(), in.M)
	var loads loadheap.Tree[float64]
	loads.Reset(in.M)
	for _, j := range order {
		p.Assign(j, loads.MinID())
		loads.AddToMin(in.Tasks[j].Estimate)
	}
}
