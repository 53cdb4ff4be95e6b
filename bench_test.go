// Benchmarks over the library: every registered experiment at Quick
// trial counts (BenchmarkExperiment), the micro-kernels that attribute
// cmd/bench's library workloads to one loop each (the kernels table),
// and a few whole-pipeline paths.
//
// Nothing here claims a time. This host swings a wall-clock rate by a
// third between runs, so "is it faster" is `make bench-pair` over
// cmd/bench (ten alternating pairs, a verdict per end-to-end metric);
// these are for looking at one loop while working on it:
//
//	go test -run '^$' -bench 'SimLoop|OpenSimLoop|Verify|LPTOrder|Estimate' -benchmem -count 5 .
//
// What the host does resolve exactly is allocation, and that is gated
// live: TestKernelAllocations runs the same closures the Benchmark*
// functions time.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/keysort"
	"repro/internal/loadheap"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/wire"
	"repro/internal/workload"
)

// BenchmarkExperiment regenerates every registered artifact — the
// paper's tables and figures and the extension experiments, as indexed
// in DESIGN.md — at Quick trial counts, discarding the report. One
// artifact is `-bench 'Experiment/<id>'`; a newly registered one is
// benchmarked with no edit here.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, experiments.Options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentWorkers contrasts the fully sequential
// (Workers=1) and fan-out (Workers=0) renderings of E2. The harness
// guarantees both produce byte-identical reports, so the difference is
// pure parallel speedup.
func BenchmarkExperimentWorkers(b *testing.B) {
	e, err := experiments.Get("e2")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := experiments.Options{Quick: true, Workers: bc.workers}
				if err := e.Run(io.Discard, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernel is one micro-kernel: a loop cmd/bench's library workloads
// spend their time in, with everything around it computed once, so a
// call is one steady-state pass and a cost seen end to end can be
// attributed by running the loop alone.
type kernel struct {
	// name is the sub-benchmark name BENCH_5…17.json recorded the kernel
	// under, family first: "SimLoop/n=100k" is BenchmarkSimLoop/n=100k.
	name string
	// n is the instance size setup builds and so the number of
	// scheduling tasks one call processes, for the tasks/s metric; 0
	// where setup fixes its own size and that rate means nothing.
	n int
	// allocs and bytes cap what one warm call may allocate
	// (TestKernelAllocations); both zero is the zero-allocation contract
	// and is held exactly.
	allocs, bytes uint64
	// pooled marks a closure that keeps its state warm through several
	// sync.Pools. Under the race detector, which drops a quarter of all
	// Puts, about one such call in eight finds every pool still full,
	// and four of fifteen ten-call readings saw none warm: its caps hold
	// in builds without -race (tier-1's go test ./...), and a -race
	// build logs the reading.
	pooled bool
	// setup builds the inputs at size n and returns the per-iteration
	// closure.
	setup func(tb testing.TB, n int) func()
}

// kernels is the one definition of each micro-kernel: the Benchmark*
// functions below time these closures and TestKernelAllocations counts
// their allocations.
//
//   - SimLoop: a batch run of the one sim.Runner, reused, with placement
//     and order precomputed; shards replay on the calling goroutine, so
//     the rate is per core. n=100k without replication is all singleton
//     shards, the linear replay with no event tree; `everywhere` (LPT-No
//     Restriction) puts every task in its shard's one shared pending
//     set; `abo` (ABO_Δ at Δ=1) ranks the pinned S2 in per-machine
//     narrow sets beside the replicated S1 in the shared one, both
//     served by the general loop. The last two attribute pipeline-fresh's
//     classes of the same names.
//   - Verify: sched.Verify on the `everywhere` run's schedule, once by
//     each of its two sources of order — the engine's dispatch record,
//     one walk, and with the record taken away the per-machine sort every
//     schedule from elsewhere (JSON, a run with failures) pays. The pair
//     keeps the fallback's cost in view beside the path that avoids it.
//   - LPTOrder: the one sort an LPT plan makes, from a reused scratch
//     as algo.Scratch.plan runs it.
//   - LPT: the greedy step after it, one AddToMin a task into a reused
//     loadheap.Tree over descending times, as opt.LPT, the optimum's LPT
//     bound and every LPT placement run it; at pipeline-fresh's shape
//     and serve-solve's m=512.
//   - OpenSimLoop: an open run of the same Runner, Poisson arrivals at
//     a quarter of capacity, one row per replay path. n=10k is its heaviest
//     policy — every task on every machine, cancel-on-completion at a
//     cost — which makes the cluster one uniform shard on the
//     race-collapse path; m=128 is the two-word cohort mask; g8-coc0 is
//     eight such shards at zero cancel cost, open-replay's class of the
//     same name. The rest are the general loop: cos (cancel-on-start,
//     every task everywhere) is its all-wide case, which only the shared
//     pending set serves; general (ABO_Δ's pinned tasks beside its
//     replicated ones) and tail (ReplicateTail, the larger half pinned),
//     both cancel-on-completion at a cost, add the per-machine narrow
//     sets.
//   - EstimateCache/warm, EstimateCold: the two halves of scoring against
//     the optimum, a memo hit and the solve behind a miss, the latter at
//     the shapes pipeline-fresh (n=10k, m=64), serve-solve (n=2k, m=512)
//     and serve-fanout (n=200, m=8) solve. A cold solve keeps the memo's
//     private copy of its key (8 bytes a task) in a one-entry bucket, 2
//     allocations and 81,984 B at n=10k, and allocates nothing else; the
//     caps are those readings. They held 8 allocations and 512 KB while
//     setup left the shards' maps to the first lap, where most calls
//     also built one; the odd reading of 4 allocations and 16,760 B at
//     n=2k was a collection in the one call of ten that did not.
//   - WireScan, WireSplice: the two passes a serve-solve request makes
//     over its bytes at each proxy tier. The scan (task.Scanner.floats
//     under wire.ScanItem) allocates what it returns — the task slice,
//     the instance, the algorithm string — and nothing per number; the
//     splice is the answer checked once on receipt (wire.SoleResult, the
//     one-pass checker, aliasing the body) and copied at write
//     (wire.Encode) into the writer's reused buffer.
//   - ReadBody: a tier reading the request body WireScan scans, 109 KB
//     (wire.ReadBody under its declared length), and releasing it once
//     answered: the pooled buffer is warm, so the read allocates nothing.
//   - WireEncode: schedd printing its answer (ScheduleResponse.AppendJSON
//     under wire.Encode, over sched's and placement's appenders) into a
//     warm buffer, at serve-solve's shape and serve-fanout's.
var kernels = []kernel{
	{name: "SimLoop/n=100k", n: 100_000, setup: simLoop(noneShape)},
	{name: "SimLoop/everywhere/n=10k,m=64", n: 10_000, setup: simLoop(everywhereShape)},
	{name: "SimLoop/abo/n=10k,m=64", n: 10_000, setup: simLoop(aboShape)},
	{name: "Verify/recorded/n=10k,m=64", n: 10_000, setup: verifyKernel(true)},
	{name: "Verify/sorted/n=10k,m=64", n: 10_000, setup: verifyKernel(false)},
	{name: "LPTOrder/n=10k", n: 10_000, setup: lptOrder},
	{name: "LPT/n=10k,m=64", n: 10_000, setup: lptPass(64)},
	{name: "LPT/n=2k,m=512", n: 2_000, setup: lptPass(512)},
	{name: "OpenSimLoop/n=10k", n: 10_000, setup: openSimLoop(64, everywhereShape, openRace)},
	{name: "OpenSimLoop/m=128", n: 10_000, setup: openSimLoop(128, everywhereShape, openRace)},
	{name: "OpenSimLoop/g8-coc0", n: 10_000, setup: openSimLoop(64, groups8Shape,
		sim.OpenOptions{Policy: sim.CancelOnCompletion})},
	{name: "OpenSimLoop/cos", n: 10_000, setup: openSimLoop(64, everywhereShape,
		sim.OpenOptions{Policy: sim.CancelOnStart})},
	{name: "OpenSimLoop/general", n: 10_000, setup: openSimLoop(64, aboShape, openRace)},
	{name: "OpenSimLoop/tail", n: 10_000, setup: openSimLoop(64, tailShape, openRace)},
	{name: "EstimateCache/warm", setup: estimateWarm},
	{name: "EstimateCold/n=10k,m=64", n: 10_000, allocs: 2, bytes: 81_984, setup: estimateCold(64)},
	{name: "EstimateCold/n=2k,m=512", n: 2_000, allocs: 2, bytes: 16_448, setup: estimateCold(512)},
	{name: "EstimateCold/n=200,m=8", n: 200, allocs: 2, bytes: 1_856, setup: estimateCold(8)},
	{name: "WireScan/n=2k", n: 2_000, allocs: 4, bytes: 72 << 10, setup: wireScan},
	{name: "WireSplice/68KB", setup: wireSplice},
	{name: "ReadBody/n=2k", n: 2_000, pooled: true, setup: readBody},
	{name: "WireEncode/n=2k,m=512", n: 2_000, setup: wireEncode("lpt-nochoice", 512)},
	{name: "WireEncode/n=200,m=8", n: 200, setup: wireEncode("ls-group:2", 8)},
}

// uniformInstance is the perturbed uniform instance the kernels share.
// Deterministic: fixed seeds.
func uniformInstance(n, m int) *task.Instance {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	return in
}

func simLoop(shape func(*task.Instance) (*placement.Placement, []int, error)) func(testing.TB, int) func() {
	return func(tb testing.TB, n int) func() {
		in := uniformInstance(n, 64)
		p, order, err := shape(in)
		if err != nil {
			tb.Fatal(err)
		}
		var runner sim.Runner
		return func() {
			if _, err := runner.RunSharded(in, p, order, sim.FlatOptions{}); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func noneShape(in *task.Instance) (*placement.Placement, []int, error) {
	a := algo.LPTNoChoice()
	p, err := a.Place(in)
	return p, a.Order(in), err
}

func everywhereShape(in *task.Instance) (*placement.Placement, []int, error) {
	a := algo.LPTNoRestriction()
	p, err := a.Place(in)
	return p, a.Order(in), err
}

func aboShape(in *task.Instance) (*placement.Placement, []int, error) {
	res, err := memaware.ABO(in, memaware.Config{Delta: 1})
	if err != nil {
		return nil, nil, err
	}
	return res.Placement, append(append([]int(nil), res.MemoryIntensive...), res.TimeIntensive...), nil
}

func verifyKernel(recorded bool) func(testing.TB, int) func() {
	return func(tb testing.TB, n int) func() {
		in := uniformInstance(n, 64)
		p, order, err := everywhereShape(in)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := sim.RunFlatSharded(in, p, order, sim.FlatOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		s := res.Schedule
		if !recorded {
			s.Dispatched = nil
		}
		return func() {
			if err := s.Verify(in, p); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func lptOrder(_ testing.TB, n int) func() {
	keys := uniformInstance(n, 64).Estimates()
	var ks keysort.Scratch
	var order []int
	return func() { order = ks.OrderDesc(keys, order) }
}

// lptMakespan keeps lptPass's answer live.
var lptMakespan float64

func lptPass(m int) func(testing.TB, int) func() {
	return func(_ testing.TB, n int) func() {
		var ks keysort.Scratch
		desc := ks.SortDesc(uniformInstance(n, m).Estimates(), nil)
		var loads loadheap.Tree[float64]
		return func() {
			loads.Reset(m)
			for _, p := range desc {
				loads.AddToMin(p)
			}
			lptMakespan = loads.MaxLoad()
		}
	}
}

// tailShape is ReplicateTail with the smaller half of the tasks
// replicated: the larger half pinned by LPT, the rest on every machine.
func tailShape(in *task.Instance) (*placement.Placement, []int, error) {
	a := algo.ReplicateTail(in.N() / 2)
	p, err := a.Place(in)
	return p, a.Order(in), err
}

func groups8Shape(in *task.Instance) (*placement.Placement, []int, error) {
	a, err := algo.New("ls-group:8")
	if err != nil {
		return nil, nil, err
	}
	p, err := a.Place(in)
	return p, a.Order(in), err
}

// openRace is the open kernels' racing policy: cancel-on-completion at
// a tenth of a second, open-replay's ev-coc and g8-coc cost.
var openRace = sim.OpenOptions{Policy: sim.CancelOnCompletion, CancelCost: 0.1}

func openSimLoop(m int, shape func(*task.Instance) (*placement.Placement, []int, error),
	opts sim.OpenOptions) func(testing.TB, int) func() {
	return func(tb testing.TB, n int) func() {
		in := uniformInstance(n, m)
		p, order, err := shape(in)
		if err != nil {
			tb.Fatal(err)
		}
		arrive, err := workload.Arrivals(n, workload.ArrivalSpec{Process: "poisson", Rate: float64(m) / 4, Seed: 3})
		if err != nil {
			tb.Fatal(err)
		}
		var runner sim.Runner
		return func() {
			if _, err := runner.RunOpenSharded(in, p, order, arrive, opts); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// estimateCacheTimes is the one instance BenchmarkEstimateCache solves
// cold and hits warm.
func estimateCacheTimes() []float64 {
	src := rng.New(7)
	times := make([]float64, 64)
	for i := range times {
		times[i] = src.Uniform(1, 10)
	}
	return times
}

// estimateWarm is the memo hit: hash the key, compare it, return. The
// first call is the miss that stores it, on the default exact limit so
// that miss is a bounds solve (n=64 is past every refinement) and
// costs microseconds; the hit path never looks at what was solved.
func estimateWarm(testing.TB, int) func() {
	times := estimateCacheTimes()
	return func() { opt.Estimate(times, 8, 0) }
}

// estimateCold makes every call a miss: a ring of distinct instances,
// the memo emptied once per lap. The reset rides inside the closure —
// sixteen cleared maps every sixteenth call, under a thousandth of the
// smallest solve — so no timer is stopped mid-run. Setup solves one lap
// first, so that every shard the ring stores to has its map and every
// call, the first lap's included, allocates what a cold solve keeps:
// the memo's copy of its key and the bucket it sits in.
func estimateCold(m int) func(testing.TB, int) func() {
	return func(_ testing.TB, n int) func() {
		src := rng.New(14)
		ring := make([][]float64, 16)
		for k := range ring {
			ring[k] = make([]float64, n)
			for i := range ring[k] {
				ring[k][i] = src.Uniform(1, 100)
			}
		}
		for _, times := range ring {
			opt.Estimate(times, m, 0)
		}
		opt.ResetCache()
		i := 0
		return func() {
			if i == len(ring) {
				opt.ResetCache()
				i = 0
			}
			opt.Estimate(ring[i], m, 0)
			i++
		}
	}
}

// serveItem is a work item as cmd/bench spells it: n tasks on m
// machines, estimates and actuals.
func serveItem(tb testing.TB, algorithm string, n, m int) []byte {
	body, err := json.Marshal(map[string]any{"algorithm": algorithm, "instance": uniformInstance(n, m)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveAnswer is schedd's response to serveItem, decoded from its batch
// answer.
func serveAnswer(tb testing.TB, algorithm string, n, m int) *serve.ScheduleResponse {
	var req serve.ScheduleRequest
	if err := json.Unmarshal(serveItem(tb, algorithm, n, m), &req); err != nil {
		tb.Fatal(err)
	}
	answer := serve.New(serve.Config{}).RunBatch(context.Background(),
		&serve.BatchRequest{Requests: []serve.ScheduleRequest{req}}, 1).Results[0]
	if answer.Error != "" {
		tb.Fatal(answer.Error)
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(answer.Response, &resp); err != nil {
		tb.Fatal(err)
	}
	return &resp
}

func wireScan(tb testing.TB, n int) func() {
	body := serveItem(tb, "lpt-nochoice", n, 512)
	return func() {
		if it, ok := wire.ScanItem(body); !ok || it.Instance.N() != n {
			tb.Fatal("serve-solve's item left the scanner's path")
		}
	}
}

// wireSplice is frontd's handling of serve-solve's answer, 68 KB:
// clusterd's one-item envelope unwrapped and checked, then written into
// frontd's own.
func wireSplice(tb testing.TB, _ int) func() {
	var body bytes.Buffer
	wire.Encode(&body, &wire.Results{Results: []wire.Result{wire.Answer(0, serveAnswer(tb, "lpt-nochoice", 2_000, 512))}})
	batch := &wire.Results{Results: make([]wire.Result, 1)}
	var buf bytes.Buffer
	return func() {
		var ok bool
		if batch.Results[0], ok = wire.SoleResult(body.Bytes()); !ok {
			tb.Fatal("clusterd's envelope refused")
		}
		buf.Reset()
		if wire.Encode(&buf, batch); !bytes.Equal(buf.Bytes(), body.Bytes()) {
			tb.Fatal("the answer changed on its way through")
		}
	}
}

// readBody is the read a tier makes of a serve-solve request: the body
// in a pooled buffer sized from the declared length, released once the
// answer is written.
func readBody(tb testing.TB, n int) func() {
	item := serveItem(tb, "lpt-nochoice", n, 512)
	r := bytes.NewReader(item)
	return func() {
		r.Reset(item)
		body, err := wire.ReadBody(r, int64(len(item)), 8<<20)
		if err != nil || len(body.Bytes()) != len(item) {
			tb.Fatalf("read %d of %d bytes: %v", len(body.Bytes()), len(item), err)
		}
		body.Release()
	}
}

func wireEncode(algorithm string, m int) func(testing.TB, int) func() {
	return func(tb testing.TB, n int) func() {
		resp := serveAnswer(tb, algorithm, n, m)
		var buf bytes.Buffer
		return func() {
			buf.Reset()
			if wire.Encode(&buf, resp); buf.Len() < 12*n {
				tb.Fatal("answer shorter than its numbers")
			}
		}
	}
}

// benchKernels times every kernel of one family as a sub-benchmark
// under the rest of its name. The untimed first call grows every pooled
// buffer to size, so the timed region is the steady state.
func benchKernels(b *testing.B, family string) {
	for _, k := range kernels {
		rest, ok := strings.CutPrefix(k.name, family+"/")
		if !ok {
			continue
		}
		b.Run(rest, func(b *testing.B) {
			run := k.setup(b, k.n)
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			if k.n > 0 {
				b.ReportMetric(float64(k.n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
			}
		})
	}
}

func BenchmarkSimLoop(b *testing.B)      { benchKernels(b, "SimLoop") }
func BenchmarkVerify(b *testing.B)       { benchKernels(b, "Verify") }
func BenchmarkLPTOrder(b *testing.B)     { benchKernels(b, "LPTOrder") }
func BenchmarkLPT(b *testing.B)          { benchKernels(b, "LPT") }
func BenchmarkOpenSimLoop(b *testing.B)  { benchKernels(b, "OpenSimLoop") }
func BenchmarkEstimateCold(b *testing.B) { benchKernels(b, "EstimateCold") }
func BenchmarkWireScan(b *testing.B)     { benchKernels(b, "WireScan") }
func BenchmarkWireSplice(b *testing.B)   { benchKernels(b, "WireSplice") }
func BenchmarkWireEncode(b *testing.B)   { benchKernels(b, "WireEncode") }
func BenchmarkReadBody(b *testing.B)     { benchKernels(b, "ReadBody") }

// BenchmarkEstimateCache measures opt.Estimate on one instance under
// repetition: cold pays for an exact solve (exact limit n) every
// iteration, warm is the kernel table's memo hit.
func BenchmarkEstimateCache(b *testing.B) {
	times := estimateCacheTimes()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt.ResetCache()
			opt.Estimate(times, 8, len(times))
		}
	})
	benchKernels(b, "EstimateCache")
}

// steadyAllocs reports what a warm call of run allocates, in whole
// allocations and bytes, as the least over ten calls each measured
// alone, and how many of the ten a garbage collection finished in. A
// loop that allocates does so on every pass, so the least call still
// shows it; what varies between calls is not the loop's: a sync.Pool
// refilled because the race detector dropped the last Put (one call in
// four, 17 allocations and 800 KB at EstimateCold's n=10k) or a
// collection emptied it, a collection's own bookkeeping (4 allocations
// and 312 B inside an EstimateCold/n=2k,m=512 call), a map growing, a
// runtime goroutine's stray block. A mean over a window would have to
// absorb those in its caps, and then an exact zero is no longer exact.
func steadyAllocs(run func()) (allocs, bytes uint64, collected int) {
	run() // grow every pooled buffer to size
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		if after.NumGC != before.NumGC {
			collected++
		}
	}
	return allocs, bytes, collected
}

// TestKernelAllocations is the allocation gate, run live by `go test
// ./...`: every kernel's closure, warm, stays inside its cap — exactly
// 0 allocations and 0 bytes for the simulator loops, the key sort and
// the memo hit. An allocation added anywhere under Runner.replaySpan
// fails here, on any host, in seconds; a committed number could only
// say what some earlier tree did. The last two cases are not warm.
// Pipeline/groups8 is the whole pipeline at Groups k=8: it allocates in
// placement scoring (14 at the time of writing), and the cap is what
// separates that from one allocation per task — validateGroups once
// sorted a fresh copy of every replica set, 10,015 allocations a run.
// MemoryAware/abo is core.RunMemoryAware with ABO_Δ at Δ=1, warm memo,
// what pipeline-fresh's `abo` op runs bar the cold solve of the sizes.
// The simulator, the reference schedules' columns and mappings and the
// optimum inputs are pooled, and both optima are memo hits that start
// no goroutine, so what a call allocates is what it hands the caller:
// the placement's replica sets and the slab of m + |S2| machines they
// are carved from (240,000 + about 40,000 B at n=10k), the S2-then-S1
// order the two lists are views of (80,000 B) and the schedule with its
// dispatch record (240,000 + 40,000 B) — about 640,000 B, which the
// allocator's size classes round to 656,320 B in 12 allocations. The
// caps sit two allocations and 21,680 B over that. Before the pooling
// a call read 51 allocations and 1,404,784 B; before the slab was sized
// to S2 and the two optima were solved through a fan-out helper, 22
// and 698,304 B. FreshRun/abo is the package-level batch entry point, a
// fresh runner per call, on the same ABO_Δ shape: the footprint the
// pooled runner no longer pays per call. Its caps are the footprint
// before the batch and open engines merged (23 allocations, 525,696 B)
// plus under 1 % on the bytes; the merged engine reads 21 and
// 490,096 B.
func TestKernelAllocations(t *testing.T) {
	gated := append(kernels[:len(kernels):len(kernels)], kernel{
		name: "Pipeline/groups8/n=10k", n: 10_000, allocs: 64, bytes: math.MaxUint64,
		setup: func(tb testing.TB, n int) func() {
			in := uniformInstance(n, 64)
			var r core.Runner
			return func() {
				if _, err := r.Run(in, core.Config{Strategy: core.Groups, Groups: 8}); err != nil {
					tb.Fatal(err)
				}
			}
		},
	}, kernel{
		name: "MemoryAware/abo/n=10k,m=64", n: 10_000, allocs: 14, bytes: 678_000, pooled: true,
		setup: func(tb testing.TB, n int) func() {
			in := uniformInstance(n, 64)
			return func() {
				if _, err := core.RunMemoryAware(in, core.MemoryAwareConfig{Delta: 1, Replicate: true}); err != nil {
					tb.Fatal(err)
				}
			}
		},
	}, kernel{
		name: "FreshRun/abo/n=10k,m=64", n: 10_000, allocs: 23, bytes: 530_000,
		setup: func(tb testing.TB, n int) func() {
			in := uniformInstance(n, 64)
			p, order, err := aboShape(in)
			if err != nil {
				tb.Fatal(err)
			}
			return func() {
				if _, err := sim.RunFlatSharded(in, p, order, sim.FlatOptions{}); err != nil {
					tb.Fatal(err)
				}
			}
		},
	})
	for _, k := range gated {
		t.Run(k.name, func(t *testing.T) {
			allocs, bytes, collected := steadyAllocs(k.setup(t, k.n))
			t.Logf("%d allocs, %d B per call; a collection ran in %d of 10 calls", allocs, bytes, collected)
			if k.pooled && raceDetector {
				return
			}
			if allocs > k.allocs {
				t.Errorf("%d allocs per warm call, want at most %d", allocs, k.allocs)
			}
			if bytes > k.bytes {
				t.Errorf("%d B per warm call, want at most %d", bytes, k.bytes)
			}
		})
	}
}

// BenchmarkAdversaryPipeline measures the full adversarial evaluation
// loop used throughout the experiments: plan, perturb against the
// placement, execute, score.
func BenchmarkAdversaryPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := adversary.Theorem1Instance(10, 24, 2)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := core.NewPlan(in, core.Config{Strategy: core.NoReplication})
		if err != nil {
			b.Fatal(err)
		}
		if err := adversary.Apply(in, plan.Placement); err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemAware measures SABO/ABO on a mid-size instance.
func BenchmarkMemAware(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 5_000, M: 16, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.Run("SABO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memaware.SABO(in, memaware.Config{Delta: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ABO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memaware.ABO(in, memaware.Config{Delta: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBoundsEvaluation measures the analytic formula layer (it
// should be effectively free next to the simulations).
func BenchmarkBoundsEvaluation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{1.1, 1.5, 2} {
			_ = bounds.RatioReplication(210, alpha)
		}
		for _, cfg := range experiments.Table2Configs() {
			_ = bounds.MemoryMakespan(cfg.M, cfg.Alpha2, cfg.Rho, cfg.Rho, nil)
		}
	}
}
