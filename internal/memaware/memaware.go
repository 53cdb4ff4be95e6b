// Package memaware implements the paper's memory-aware replication
// model: a bi-objective problem minimizing both makespan C_max and
// maximum per-machine memory occupation Mem_max = max_i Σ_{j∈E_i} s_j.
//
// Three algorithms are provided:
//
//   - SBO_Δ — the substrate from the cited IPDPS'08 work: combine a
//     ρ1-approximate makespan schedule π1 with a ρ2-approximate memory
//     schedule π2; task j follows π2 iff
//     p̃_j / C̃^π1_max ≤ Δ · s_j / Mem^π2_max, else π1.
//   - SABO_Δ — "static asymmetric bi-objective": SBO_Δ's split under
//     uncertain times; no replication. Guarantees
//     ((1+Δ)α²ρ1, (1+1/Δ)ρ2) on (makespan, memory).
//   - ABO_Δ — "asymmetric bi-objective": memory-intensive tasks are
//     pinned per π2, processing-time-intensive tasks are replicated on
//     every machine and dispatched online by Graham's List Scheduling
//     after a machine drains its pinned queue. Guarantees
//     (2−1/m+Δα²ρ1, (1+m/Δ)ρ2).
//
// π1 and π2 default to LPT on estimates and LPT on sizes
// (ρ1 = ρ2 = 4/3 − 1/(3m)), and are pluggable so experiments can use
// exact single-objective schedules (ρ = 1) as the paper's Figure 6(b)
// assumes.
//
// What a call builds and drops is pooled, as package opt pools its
// solve scratch: the phase-2 simulator (sim.Runner), the estimate and
// size columns the reference schedules read, the default π1/π2
// mappings (LPT written into a reused buffer, through opt's own pooled
// sort), and the per-machine loads and S2 membership of the Δ test. The
// caller owns everything in the returned Result — the Placement, the
// Schedule (handed over by the simulator, not copied) and the S1/S2
// lists — and nothing in it aliases the pool. ABO's replica sets come
// from one slab sized to what they hold, m machines shared by S1 and
// one machine per task of S2, so the caller's Placement keeps no slab
// tail alive.
package memaware

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/keysort"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// MappingFunc produces a task→machine assignment optimizing one
// objective over the given weights (estimates for π1, sizes for π2).
// weights is a pooled column, valid only during the call: a MappingFunc
// must not keep it. The returned mapping is read before the call that
// asked for it returns.
type MappingFunc func(weights []float64, m int) []int

// LPTMapping is the default single-objective scheduler: LPT over the
// weights, a (4/3 − 1/(3m))-approximation for minimizing the maximum
// machine weight.
func LPTMapping(weights []float64, m int) []int {
	_, mapping := opt.LPT(weights, m)
	return mapping
}

// ExactMapping minimizes the maximum machine weight exactly via
// branch-and-bound (falls back to LPT if the search budget runs out).
// Intended for the small instances of guarantee-validation
// experiments, where ρ = 1 is required.
func ExactMapping(weights []float64, m int) []int {
	target, ok := opt.Exact(weights, m, 5_000_000)
	if !ok {
		return LPTMapping(weights, m)
	}
	// Reconstruct an assignment achieving the target via DFS.
	n := len(weights)
	var ks keysort.Scratch
	order := ks.OrderDesc(weights, nil) // weight descending, index ascending
	loads := make([]float64, m)
	mapping := make([]int, n)
	const tol = 1e-9
	var dfs func(idx int) bool
	dfs = func(idx int) bool {
		if idx == n {
			return true
		}
		j := order[idx]
		for i := 0; i < m; i++ {
			// Symmetry: skip machines identical in load to an earlier one.
			dup := false
			for i2 := 0; i2 < i; i2++ {
				//lint:ignore floatcmp symmetry pruning wants bit-identical loads; near-equal machines are legitimately distinct
				if loads[i2] == loads[i] {
					dup = true
					break
				}
			}
			if dup || loads[i]+weights[j] > target*(1+tol) {
				continue
			}
			loads[i] += weights[j]
			mapping[j] = i
			if dfs(idx + 1) {
				return true
			}
			loads[i] -= weights[j]
		}
		return false
	}
	if !dfs(0) {
		return LPTMapping(weights, m)
	}
	return mapping
}

// Config parameterizes the bi-objective algorithms.
type Config struct {
	// Delta is the Δ threshold trading makespan for memory; must be
	// positive.
	Delta float64
	// Pi1 builds the makespan-oriented schedule from estimates;
	// nil selects LPTMapping.
	Pi1 MappingFunc
	// Pi2 builds the memory-oriented schedule from sizes; nil selects
	// LPTMapping.
	Pi2 MappingFunc
}

// ErrBadDelta reports a non-positive Δ.
var ErrBadDelta = errors.New("memaware: delta must be positive")

// Result is the outcome of a bi-objective algorithm.
type Result struct {
	// Algorithm names the algorithm.
	Algorithm string
	// Placement is the phase-1 data placement (replica sets).
	Placement *placement.Placement
	// Schedule is the executed schedule.
	Schedule *sched.Schedule
	// Makespan is the executed makespan (actual times).
	Makespan float64
	// MemMax is max_i Σ_{j replicated on i} s_j.
	MemMax float64
	// TimeIntensive lists the tasks in S1 (scheduled for makespan).
	TimeIntensive []int
	// MemoryIntensive lists the tasks in S2 (scheduled for memory).
	MemoryIntensive []int
	// PlannedMakespan is C̃^π1_max, the estimated makespan of π1.
	PlannedMakespan float64
	// PlannedMemory is Mem^π2_max, the memory of π2.
	PlannedMemory float64
}

// scratch is one call's working state, recycled through scratchPool
// (see the package comment for what is pooled and what the caller
// owns).
type scratch struct {
	runner         sim.Runner
	weights        []float64 // the column a reference schedule reads
	pi1, pi2       []int     // default mappings; a custom one is its own
	loads1, loads2 []float64
	inS2           []bool
	mapping        []int // SABO's pinned machine per task
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reference builds one reference schedule over sc.weights: f's
// mapping, or when f is nil LPT's, written into *buf.
func (sc *scratch) reference(f MappingFunc, m int, buf *[]int) []int {
	if f != nil {
		return f(sc.weights, m)
	}
	_, *buf = opt.LPTInto(sc.weights, m, *buf)
	return *buf
}

// split computes S1/S2 and the reference schedules. It returns the
// π1 and π2 mappings, the planned C̃^π1_max and Mem^π2_max, and the
// membership of S2 (memory-intensive), all in sc's buffers.
func (sc *scratch) split(in *task.Instance, cfg Config) (pi1, pi2 []int, cmax1, mem2 float64, inS2 []bool, err error) {
	if !(cfg.Delta > 0) {
		return nil, nil, 0, 0, nil, fmt.Errorf("%w: got %v", ErrBadDelta, cfg.Delta)
	}
	sc.weights = in.AppendEstimates(sc.weights[:0])
	pi1 = sc.reference(cfg.Pi1, in.M, &sc.pi1)
	sc.weights = in.AppendSizes(sc.weights[:0])
	pi2 = sc.reference(cfg.Pi2, in.M, &sc.pi2)
	if len(pi1) != in.N() || len(pi2) != in.N() {
		return nil, nil, 0, 0, nil, fmt.Errorf("memaware: mapping length mismatch")
	}
	sc.loads1, sc.loads2 = zeroed(sc.loads1, in.M), zeroed(sc.loads2, in.M)
	loads1, loads2 := sc.loads1, sc.loads2
	for j, t := range in.Tasks {
		loads1[pi1[j]] += t.Estimate
		loads2[pi2[j]] += t.Size
	}
	for i := 0; i < in.M; i++ {
		if loads1[i] > cmax1 {
			cmax1 = loads1[i]
		}
		if loads2[i] > mem2 {
			mem2 = loads2[i]
		}
	}
	if cmax1 <= 0 {
		return nil, nil, 0, 0, nil, fmt.Errorf("memaware: degenerate π1 makespan")
	}
	sc.inS2 = zeroed(sc.inS2, in.N())
	inS2 = sc.inS2
	for j, t := range in.Tasks {
		// p̃_j / C̃^π1 ≤ Δ·s_j / Mem^π2 → memory-intensive (S2).
		lhs := t.Estimate / cmax1
		var rhs float64
		if mem2 > 0 {
			rhs = cfg.Delta * t.Size / mem2
		}
		inS2[j] = lhs <= rhs
	}
	return pi1, pi2, cmax1, mem2, inS2, nil
}

// zeroed returns buf resized to n zero values, reallocated only when it
// is too short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// execute runs phase 2 of p in the given priority order on sc's
// simulator, verifies the schedule and hands it to the caller.
func (sc *scratch) execute(in *task.Instance, p *placement.Placement, order []int) (*sched.Schedule, error) {
	if _, err := sc.runner.RunSharded(in, p, order, sim.FlatOptions{}); err != nil {
		return nil, err
	}
	s := sc.runner.TakeSchedule()
	if err := s.Verify(in, p); err != nil {
		return nil, err
	}
	return s, nil
}

// sides lists the tasks of S2 and then of S1, each in task order, in one
// array sized by counting first: s2 and s1 are its two halves, and read
// whole it is the priority order of ABO_Δ's phase 2 — pinned memory
// tasks first, so machines drain their π2 queues, then the replicated
// tasks in list order.
func sides(inS2 []bool) (order, s1, s2 []int) {
	n2 := 0
	for _, mem := range inS2 {
		if mem {
			n2++
		}
	}
	order = make([]int, len(inS2))
	k2, k1 := 0, n2
	for j, mem := range inS2 {
		if mem {
			order[k2] = j
			k2++
		} else {
			order[k1] = j
			k1++
		}
	}
	return order, order[n2:], order[:n2:n2]
}

// SABO runs the SABO_Δ algorithm: each task is statically pinned to
// its π1 or π2 machine according to the Δ test; phase 2 just executes
// the pinned assignment with actual times.
func SABO(in *task.Instance, cfg Config) (*Result, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.sabo(in, cfg)
}

func (sc *scratch) sabo(in *task.Instance, cfg Config) (*Result, error) {
	pi1, pi2, cmax1, mem2, inS2, err := sc.split(in, cfg)
	if err != nil {
		return nil, err
	}
	sc.mapping = zeroed(sc.mapping, in.N())
	mapping := sc.mapping
	for j := range mapping {
		if inS2[j] {
			mapping[j] = pi2[j]
		} else {
			mapping[j] = pi1[j]
		}
	}
	_, s1, s2 := sides(inS2)
	p := placement.New(in.N(), in.M)
	for j, i := range mapping {
		p.Assign(j, i)
	}
	s, err := sched.FromMapping(in, mapping)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:       fmt.Sprintf("SABO(Δ=%.3g)", cfg.Delta),
		Placement:       p,
		Schedule:        s,
		Makespan:        s.Makespan(),
		MemMax:          p.MaxMemory(in),
		TimeIntensive:   s1,
		MemoryIntensive: s2,
		PlannedMakespan: cmax1,
		PlannedMemory:   mem2,
	}, nil
}

// ABO runs the ABO_Δ algorithm: memory-intensive tasks are pinned per
// π2; time-intensive tasks are replicated on all machines and
// dispatched online with Graham's List Scheduling once a machine has
// drained its pinned queue.
func ABO(in *task.Instance, cfg Config) (*Result, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.abo(in, cfg)
}

func (sc *scratch) abo(in *task.Instance, cfg Config) (*Result, error) {
	_, pi2, cmax1, mem2, inS2, err := sc.split(in, cfg)
	if err != nil {
		return nil, err
	}
	p := placement.New(in.N(), in.M)
	order, s1, s2 := sides(inS2)
	// Every replica set is carved from one slab of m + |S2| machines.
	// Every replicated task shares the one all-machines set, as
	// placement.EverywhereInto's tasks do: replica sets are read-only, and
	// a shared slice lets placement.SameSet skip the repeats. Each pinned
	// task gets a one-machine set of its own; Placement.Assign would grow
	// its slab to all n tasks, of which only |S2| are pinned.
	slab := make([]int, in.M+len(s2))
	all := slab[:in.M:in.M]
	for i := range all {
		all[i] = i
	}
	for _, j := range s1 {
		p.Sets[j] = all
	}
	pinned := slab[in.M:]
	for k, j := range s2 {
		pinned[k] = pi2[j]
		p.Sets[j] = pinned[k : k+1 : k+1]
	}
	s, err := sc.execute(in, p, order)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:       fmt.Sprintf("ABO(Δ=%.3g)", cfg.Delta),
		Placement:       p,
		Schedule:        s,
		Makespan:        s.Makespan(),
		MemMax:          p.MaxMemory(in),
		TimeIntensive:   s1,
		MemoryIntensive: s2,
		PlannedMakespan: cmax1,
		PlannedMemory:   mem2,
	}, nil
}
