package main

import "context"

// metricDef names one reported metric. The end-to-end list is mirrored
// by BENCHMARK.json (TestSpecMatchesBenchmarkJSON holds the two
// together); Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"allocs_per_op", "count", lower, 0.15},
	{"kb_per_op", "KB", lower, 0.05},
	{"rss_peak_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"tasks_per_s", "1/s", higher, 0.25},
}

// perLayer is the traced run's output: one layer each, no bound. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "algo.order_ms", Unit: "ms", Better: lower},
	{Name: "algo.place_ms", Unit: "ms", Better: lower},
	{Name: "cluster.dispatch_per_item", Unit: "count", Better: lower},
	{Name: "cluster.hedge_win_share", Unit: "share", Better: higher},
	{Name: "cluster.hop_us", Unit: "us", Better: lower},
	{Name: "cluster.retries_per_item", Unit: "count", Better: lower},
	{Name: "cluster.self_us", Unit: "us", Better: lower},
	{Name: "core.open_ms", Unit: "ms", Better: lower},
	{Name: "core.run_ms", Unit: "ms", Better: lower},
	{Name: "driver.lag_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.wait_us", Unit: "us", Better: lower},
	{Name: "fail_share", Unit: "share", Better: lower},
	{Name: "fanout.batch.items_per_s", Unit: "1/s", Better: higher},
	{Name: "fanout.stream.items_per_s", Unit: "1/s", Better: higher},
	{Name: "front.hop_us", Unit: "us", Better: lower},
	{Name: "front.self_us", Unit: "us", Better: lower},
	{Name: "front.shed_share", Unit: "share", Better: lower},
	{Name: "go.gc_cpu_share", Unit: "share", Better: lower},
	{Name: "http.requests_per_item", Unit: "count", Better: lower},
	{Name: "items_per_s", Unit: "1/s", Better: higher},
	{Name: "lat_p50_ms", Unit: "ms", Better: lower},
	{Name: "lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "lat_tail_pct", Unit: "%", Better: higher},
	{Name: "max_ok_rate_rps", Unit: "1/s", Better: higher},
	{Name: "memaware.abo_ms", Unit: "ms", Better: lower},
	{Name: "open.ev-coc-m128.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "open.ev-coc.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "open.ev-cos.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "open.g8-coc.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "open.g8-coc0.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "open.response_digest", Unit: "s", Better: lower},
	{Name: "ops", Unit: "count", Better: higher},
	{Name: "opt.estimate_ms", Unit: "ms", Better: lower},
	{Name: "opt.exact_share", Unit: "share", Better: lower},
	{Name: "opt.miss_share", Unit: "share", Better: lower},
	{Name: "pipeline.abo.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "pipeline.everywhere.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "pipeline.groups8.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "pipeline.makespan_digest", Unit: "s", Better: lower},
	{Name: "pipeline.none.tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "placement.validate_ms", Unit: "ms", Better: lower},
	{Name: "rate.r1000.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "rate.r2000.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "rate.r4000.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "rate.r8000.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "sched.verify_ms", Unit: "ms", Better: lower},
	{Name: "serve.rejected_share", Unit: "share", Better: lower},
	{Name: "serve.self_us", Unit: "us", Better: lower},
	{Name: "serve.solve_us", Unit: "us", Better: lower},
	{Name: "sim.cancel_per_task", Unit: "count", Better: lower},
	{Name: "sim.events_per_task", Unit: "count", Better: lower},
	{Name: "sim.flat_share", Unit: "share", Better: higher},
	{Name: "sim.run_ms", Unit: "ms", Better: lower},
	{Name: "sim.stale_share", Unit: "share", Better: lower},
	{Name: "trace.overhead_share", Unit: "share", Better: lower},
	{Name: "trace.self_sum_share", Unit: "share", Better: lower},
	{Name: "window_s", Unit: "s", Better: higher},
	{Name: "workload.gen_ms", Unit: "ms", Better: lower},
}

// workloadDef is one named workload; the names are the interface later
// issues refer to. nominalS is the window the issue asked for, kept so
// the report can state the factor the contract's window scales it by.
type workloadDef struct {
	Name     string
	Why      string
	nominalS float64
	run      func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"pipeline-fresh", "library: fresh n=10000 m=64 instances through four replication classes; one cold optimum solve then memo hits per instance, as every experiment does", 15, libraryRun(specPipeline)},
	{"open-replay", "library: fresh n=4000 Poisson open-system replays over five classes; the simulator does the work, three classes sit off the race-collapse fast path", 15, libraryRun(specOpen)},
	{"serve-small", "closed loop over loopback TCP, one 6-task item per request: wire cost and hops dominate, the solve is small", 15, servingRun(planSmall)},
	{"serve-fanout", "closed loop, 16 items of n=200 per request, batch and stream alternating: fan-out, hedging and a mid-size solve all matter", 20, servingRun(planFanout)},
	{"serve-solve", "closed loop, one item of n=2000 m=512 per request: the optimum's bounds solve is two thirds of the request, so a wire optimisation moves it far less than serve-small", 20, servingRun(planSolve)},
	{"serve-open", "open loop on an absolute Poisson schedule, serve-small's shape, latency from the due time: the arrival-driven view of a shared scheduler", 20, servingRun(planOpen)},
}

// handRun workloads print the same metrics but are no part of
// BENCHMARK.json: serve-dual is the issue's serve-solve shape (one item
// of n in 24..56, m=8, the optimum's dual-approximation path, 0.5 to
// 1.3 s a solve). A window holds some twenty of those, and its numbers
// differ by a quarter between seeds, which no admissible bound covers.
var handRun = []workloadDef{
	{"serve-dual", "closed loop, one item of n in 24..56 per request: the dual approximation burns its state budget on nearly every solve", 20, servingRun(planDual)},
}

func findWorkload(name string) *workloadDef {
	for _, list := range [][]workloadDef{workloads, handRun} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}
