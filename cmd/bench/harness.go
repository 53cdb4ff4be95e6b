package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// sizes are the input shapes of the six workloads. The full sizes are
// the benchmark; smoke shrinks them so all six fit in a test.
type sizes struct {
	pipelineN, pipelineM       int
	openN                      int
	small, fanout, solve, dual serveLoad
	// openRates is the serve-open ladder; its lowest rung is the fixed
	// rate the untraced run is spent at.
	openRates []float64
	// digestRuns is how many leading instances per class feed the
	// digests; minClassRuns is the validity floor per class.
	digestRuns, minClassRuns int
}

// serveLoad is the request a serving workload sends: items of a shape,
// so many a request, after a warm-up of so many requests per client.
type serveLoad struct {
	shape itemShape
	items int
	warm  int
}

var fanoutAlgos = []string{"lpt-nochoice", "lpt-norestriction", "ls-group:2", "ls-group:4"}

var fullSizes = sizes{
	pipelineN: 10000, pipelineM: 64,
	openN:      4000,
	small:      serveLoad{itemShape{nLo: 6, nHi: 6, m: 4, algos: []string{"lpt-norestriction"}}, 1, 500},
	fanout:     serveLoad{itemShape{nLo: 200, nHi: 200, m: 8, algos: fanoutAlgos}, 16, 12},
	solve:      serveLoad{itemShape{nLo: 2000, nHi: 2000, m: 512, algos: []string{"lpt-nochoice"}}, 1, 10},
	dual:       serveLoad{itemShape{nLo: 24, nHi: 56, m: 8, algos: []string{"lpt-norestriction"}}, 1, 1},
	openRates:  []float64{1000, 2000, 4000, 8000},
	digestRuns: 8, minClassRuns: 8,
}

var smokeSizes = sizes{
	pipelineN: 400, pipelineM: 16,
	openN: 200,
	// n stays outside 21..60: every such solve costs half a second.
	small:      serveLoad{fullSizes.small.shape, 1, 8},
	fanout:     serveLoad{itemShape{nLo: 80, nHi: 80, m: 8, algos: fanoutAlgos}, 4, 2},
	solve:      serveLoad{itemShape{nLo: 100, nHi: 100, m: 32, algos: []string{"lpt-nochoice"}}, 1, 2},
	dual:       serveLoad{itemShape{nLo: 61, nHi: 64, m: 8, algos: []string{"lpt-norestriction"}}, 1, 1},
	openRates:  []float64{200, 400},
	digestRuns: 2, minClassRuns: 1,
}

// A run is cut into rounds: each sets the system up afresh and then
// measures for its share of the window, so a run reads its set-up time
// several times over and does not hang on the luck of one boot. Each
// measured stretch is cut further into slices. The host is a small
// shared virtual machine that loses its processors to its neighbours
// for seconds at a time, and that only ever slows a slice down; so the
// throughput reported is the upper quartile of the slices' rates and
// the latency the lower quartile of their medians: the system in the
// quiet part of the run. The plain totals are reported beside them
// (items_per_s) by the traced run.
const (
	fullRounds     = 8
	slicesPerRound = 3
)

// tracedRound says whether round r of a run records spans. A traced
// run leaves every other round untraced: their rate is what the traced
// rate is held against, and interleaving cancels a drift of the host.
func (c runConfig) tracedRound(r int) bool { return c.trace && r%2 == 0 }

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	sizes   sizes
	// rounds is how many times the run sets up and then measures; each
	// round gets an equal share of seconds.
	rounds   int
	clients  int    // client goroutines and keep-alive connections
	traceOut string // where the traced run writes its spans; "" keeps them in memory only
}

// result is what one run reports. metrics holds every metric the run
// computed; samples the number of observations behind a metric where
// that is not obvious; invalid the reasons, if any, the run's numbers
// should not be read as measurements.
type result struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]float64
	samples           map[string]int
	invalid           []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

// fail counts one failed output check or operation.
func (r *result) fail(format string, args ...any) {
	r.failN(1, fmt.Sprintf(format, args...))
}

// failN counts n failures that share one cause.
func (r *result) failN(n int, cause string) {
	r.failed += n
	if r.firstFailure == "" {
		r.firstFailure = cause
	}
}

func (r *result) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// setLatency fills lat_p50_ms and lat_p99_ms from per-op latencies in
// milliseconds. When p99 has too few samples beyond it, lat_p99_ms is
// read at the highest ladder percentile that has enough;
// lat_tail_pct says which.
func (r *result) setLatency(ms []float64) {
	slices.Sort(ms)
	r.metrics["lat_p50_ms"] = quantile(ms, 0.5)
	r.samples["lat_p50_ms"] = len(ms)
	q, beyond, ok := pickTail(len(ms))
	r.metrics["lat_p99_ms"] = quantile(ms, q)
	r.metrics["lat_tail_pct"] = q * 100
	r.samples["lat_p99_ms"] = len(ms)
	if !ok {
		r.invalidate("latency tail has %d samples beyond p%g, fewer than %d", beyond, q*100, minBeyond)
	}
}

// procSnap is a reading of the process-wide counters the memory, GC
// and overhead metrics are deltas of.
type procSnap struct {
	mallocs  uint64
	bytes    uint64
	cpu      time.Duration
	gcCPU    float64
	totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// minus and plus make and sum the deltas between two readings.
func (s procSnap) minus(o procSnap) procSnap {
	return procSnap{s.mallocs - o.mallocs, s.bytes - o.bytes, s.cpu - o.cpu, s.gcCPU - o.gcCPU, s.totalCPU - o.totalCPU}
}

func (s procSnap) plus(o procSnap) procSnap {
	return procSnap{s.mallocs + o.mallocs, s.bytes + o.bytes, s.cpu + o.cpu, s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU}
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(cpuSamples)
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = cpuSamples[1].Value.Float64()
	}
	return s
}

// setMemory fills the allocation metrics from what the measured
// segments used. The counts are process-wide, so they include the
// driver's own generation, encoding and checking beside the system's
// work.
func (r *result) setMemory(used procSnap, ops int) {
	r.metrics["allocs_per_op"] = ratio(float64(used.mallocs), float64(ops))
	r.metrics["kb_per_op"] = ratio(float64(used.bytes)/1024, float64(ops))
	r.metrics["go.gc_cpu_share"] = ratio(used.gcCPU, used.totalCPU)
	r.metrics["rss_peak_mb"] = rssPeakMB()
}

// rssPeakMB reads VmHWM, the process's peak resident set.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// obsCounts reads the program's own counters by name. Timers report
// their observation count.
func obsCounts() map[string]int64 {
	out := map[string]int64{}
	for _, s := range obs.Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// delta is after[name] - before[name] as a float.
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}
