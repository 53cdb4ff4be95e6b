package sim

import (
	"repro/internal/placement"
	"repro/internal/task"
)

// The oracle, for the tests in package sim_test (which may import
// internal/algo; the in-package tests cannot).
var (
	OracleRun     = oracleRun
	OracleRunOpen = oracleRunOpen
)

// Run and RunOpen are the sequential references the differential
// suites hold the sharded entry points to: one global event loop over
// all machines, no shard decomposition.
func (r *Runner) Run(in *task.Instance, p *placement.Placement, order []int,
	opts FlatOptions) (*Result, error) {
	return r.runBatch(in, p, order, opts, false)
}

func (r *Runner) RunOpen(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	return r.runOpen(in, p, order, arrive, opts, false)
}

// RunFlatOpenSharded is an open-system run on fresh state, the tests'
// shorthand for Runner.RunOpenSharded.
func RunFlatOpenSharded(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	var r Runner
	return r.RunOpenSharded(in, p, order, arrive, opts)
}
