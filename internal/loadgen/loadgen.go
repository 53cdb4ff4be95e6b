// Package loadgen drives sustained load against the serving tier
// (frontd, clusterd, or schedd — anything speaking POST /v1/batch) and
// reports throughput, latency quantiles, and shed rate in a
// machine-readable form.
//
// The loop is closed: exactly Workers requests are in flight, the next
// issued as soon as one completes — the discipline that measures
// sustainable capacity (throughput at full pipeline). There is no open
// loop here. Response time under arrivals is measured from the arrival
// (Wang/Joshi/Wornell, arXiv:1404.1328), which needs an absolute
// schedule and latency taken from the due time; cmd/bench's serve-open
// workload is that measurement, and the only one.
//
// All randomness (per-request instance jitter) comes from internal/rng
// seeded by Config.Seed: request i is a function of (Seed, i) alone, so
// two runs against the same system issue byte-identical request sets
// whatever their concurrency.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/task"
)

// Config parameterizes one load-generation run.
type Config struct {
	// URL is the base URL of the target tier (required); requests go to
	// URL + "/v1/batch".
	URL string
	// Workers is the number of requests kept in flight. Default: 8.
	Workers int
	// Requests is the total request count (required).
	Requests int
	// Seed seeds the deterministic request stream. Default: 1.
	Seed uint64
	// Timeout is the per-request deadline. Default: 30s.
	Timeout time.Duration
	// Algorithm is the algorithm each generated request asks for.
	// Default: "lpt-norestriction".
	Algorithm string
	// Machines and Tasks shape the generated instances. Defaults: 4
	// machines, 6 tasks.
	Machines int
	Tasks    int
	// Transport overrides the HTTP transport (tests and the in-process
	// bench tier inject loopback handlers here).
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Algorithm == "" {
		c.Algorithm = "lpt-norestriction"
	}
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Tasks <= 0 {
		c.Tasks = 6
	}
	return c
}

// Latency reports the request-latency distribution in seconds.
type Latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Report is the machine-readable outcome of one run. Counts partition:
// Requests = OK + Shed + Errors.
type Report struct {
	Seed            uint64  `json:"seed"`
	Requests        int     `json:"requests"`
	OK              int     `json:"ok"`
	Shed            int     `json:"shed"`
	Errors          int     `json:"errors"`
	DurationSeconds float64 `json:"duration_seconds"`
	// ThroughputRPS counts completed-OK requests per wall second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// ShedRate is Shed / Requests (0 with no requests).
	ShedRate float64 `json:"shed_rate"`
	// LatencySeconds summarizes OK-request latencies only; shed
	// round-trips are fast by design and would flatter the quantiles.
	LatencySeconds Latency `json:"latency_seconds"`
	// FirstError samples one error message for debugging; empty when
	// Errors is 0.
	FirstError string `json:"first_error,omitempty"`
}

// outcome classifications of one request.
const (
	outOK = iota
	outShed
	outErr
)

// body renders the i-th single-item batch body of the deterministic
// request stream, a function of (seed, i) alone: its draws come from a
// stream seeded by the two folded through two SplitMix64 steps, so
// neighbouring indices and neighbouring seeds give unrelated streams
// and no body depends on which worker issues it. Instances are jittered
// per request so the front tier's content-hash sharding spreads them
// across the ring — a constant body would pin the whole run to one
// shard.
func body(cfg Config, i int) []byte {
	r := rng.New(rng.New(rng.New(cfg.Seed).Uint64() ^ uint64(i)).Uint64())
	tasks := make([]task.Task, cfg.Tasks)
	for j := range tasks {
		e := 1 + float64(r.Intn(97))
		tasks[j] = task.Task{ID: j, Estimate: e, Actual: e}
	}
	req := serve.BatchRequest{Requests: []serve.ScheduleRequest{{
		Algorithm: cfg.Algorithm,
		Instance:  &task.Instance{M: cfg.Machines, Alpha: 1.5, Tasks: tasks},
	}}}
	b, err := json.Marshal(&req)
	if err != nil {
		panic("loadgen: marshal request: " + err.Error())
	}
	return b
}

// sample is one completed request.
type sample struct {
	kind    int
	latency float64 // seconds, OK requests only
	errMsg  string
}

// collector accumulates samples under a lock; contention is negligible
// next to a network round trip.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// Run executes one load-generation run and reports it. The context
// bounds the whole run: cancellation stops issuing and waits for
// in-flight requests to resolve (each carries its own Timeout).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return nil, errors.New("loadgen: URL is required")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("loadgen: Requests must be positive")
	}
	client := &http.Client{Transport: cfg.Transport, Timeout: cfg.Timeout}
	col := &collector{}
	start := time.Now()
	runClosed(ctx, cfg, client, col)
	return buildReport(cfg, col, time.Since(start)), nil
}

// runClosed keeps Workers requests in flight until Requests have been
// issued. Workers share the index stream and each body is a function of
// its index, so the issued set is the same whichever worker wins which
// index and whatever the completion order.
func runClosed(ctx context.Context, cfg Config, client *http.Client, col *collector) {
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < cfg.Requests; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				col.add(issue(ctx, client, cfg.URL, body(cfg, i)))
			}
		}()
	}
	wg.Wait()
}

// issue posts one single-item batch and classifies the outcome:
// HTTP 429 or an item-level "shed:" error is a shed; a 200 whose item
// succeeded is OK; everything else is an error.
func issue(ctx context.Context, client *http.Client, url string, body []byte) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return sample{kind: outErr, errMsg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return sample{kind: outErr, errMsg: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return sample{kind: outErr, errMsg: err.Error()}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var br serve.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil || len(br.Results) != 1 {
			return sample{kind: outErr, errMsg: "malformed batch response"}
		}
		if msg := br.Results[0].Error; msg != "" {
			if strings.HasPrefix(msg, "shed:") {
				return sample{kind: outShed, errMsg: msg}
			}
			return sample{kind: outErr, errMsg: msg}
		}
		return sample{kind: outOK, latency: time.Since(start).Seconds()}
	case resp.StatusCode == http.StatusTooManyRequests:
		return sample{kind: outShed, errMsg: strings.TrimSpace(string(data))}
	default:
		return sample{kind: outErr, errMsg: fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
	}
}

func buildReport(cfg Config, col *collector, elapsed time.Duration) *Report {
	rep := &Report{Seed: cfg.Seed, DurationSeconds: elapsed.Seconds()}
	var lats []float64
	for _, s := range col.samples {
		rep.Requests++
		switch s.kind {
		case outOK:
			rep.OK++
			lats = append(lats, s.latency)
		case outShed:
			rep.Shed++
		default:
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = s.errMsg
			}
		}
	}
	if rep.DurationSeconds > 0 {
		rep.ThroughputRPS = float64(rep.OK) / rep.DurationSeconds
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.LatencySeconds = Latency{
			P50: stats.Quantile(lats, 0.50),
			P90: stats.Quantile(lats, 0.90),
			P99: stats.Quantile(lats, 0.99),
			Max: lats[len(lats)-1],
		}
	}
	return rep
}
