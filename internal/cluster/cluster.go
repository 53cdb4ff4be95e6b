// Package cluster lifts the paper's two-phase model into a networked
// dispatch proxy: the proxy tier (internal/proxy) under the policy where
// a pool of schedd backends plays the machine set M. Each work item (a
// schedule request with an uncertain cost estimate) is placed on a
// replica set M_j over the backends (phase 1, the placement package),
// and phase 2 is semi-clairvoyant: the least-loaded live replica runs
// it, and a slow one is hedged after a quantile-based delay (the
// tail-at-scale trick the replication theorems justify analytically).
//
// Robustness mirrors sim.FlatOptions.Failures at the network layer:
//
//   - per-backend health probes against /healthz re-admit restarted
//     backends quickly;
//   - consecutive failures open a per-backend circuit breaker with
//     exponential backoff, so a dead backend stops eating dispatches;
//   - 429 responses are honored via Retry-After instead of hammering a
//     saturated backend;
//   - items stranded on a failed backend are re-dispatched to another
//     member of their replica set — an item is lost only when its
//     whole replica set is unavailable for the full request deadline,
//     the networked analogue of ErrUnsurvivable.
//
// Observability: obs counters/gauges for per-backend in-flight, hedges
// fired and won, re-dispatches, 429 retries, and breaker state, all
// exposed on clusterd's /metrics.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Cluster-wide metrics. Counters are monotone; the per-backend gauges
// (cluster.backend.<id>.inflight, cluster.backend.<id>.breaker) are
// registered by wire.NewPool under the policy's upstream names.
var (
	mItems       = obs.GetCounter("cluster.items_total")
	mDispatches  = obs.GetCounter("cluster.dispatches_total")
	mHedges      = obs.GetCounter("cluster.hedges_fired")
	mHedgeWins   = obs.GetCounter("cluster.hedge_wins")
	mRedispatch  = obs.GetCounter("cluster.redispatches")
	mRetry429    = obs.GetCounter("cluster.retries_429")
	mBreakOpens  = obs.GetCounter("cluster.breaker_opens")
	mDials       = obs.GetCounter("cluster.backend_dials")
	mStreamItems = obs.GetCounter("cluster.stream_items")
	tBatch       = obs.GetTimer("cluster.batch")
	tStream      = obs.GetTimer("cluster.stream")
)

// ItemHeader carries the batch index of a dispatched item to the
// backend. Purely observational (chaos tests use it to count
// executions per item); schedd ignores unknown headers.
const ItemHeader = "X-Cluster-Item"

// Config parameterizes the dispatcher. The zero value of every field
// except Backends selects the documented default.
type Config struct {
	// Backends lists the schedd base URLs (e.g. "http://10.0.0.7:8080")
	// that form the machine pool. At least one is required.
	Backends []string
	// Strategy is the phase-1 replication strategy over the backends:
	// "all" (replicate everywhere, the default), "none" (each item on
	// the least-loaded single backend), or "group:k" (backends
	// partitioned into k groups via placement.PartitionGroups; k must
	// divide the backend count).
	Strategy string
	// DisableHedging turns duplicate dispatch off: each item runs on
	// exactly one backend at a time (still re-dispatched on failure).
	// Without it a slow attempt is duplicated once, onto another replica.
	// The metamorphic tests rely on this mode being deterministic.
	DisableHedging bool
	// HedgeQuantile picks the latency quantile after which a slow
	// dispatch is duplicated onto another replica. Default: 0.9.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay so cold starts (no latency
	// observations yet) do not hedge instantly. Default: 2ms.
	HedgeMinDelay time.Duration
	// HedgeMaxDelay caps the hedge delay. Default: 1s.
	HedgeMaxDelay time.Duration
	// Tier holds the settings every proxy tier shares; its Upstream
	// breaker is each backend's circuit breaker.
	Tier proxy.Config
	// Transport overrides the HTTP transport (tests inject failure modes
	// here). Default: the pool's own, keeping its connections (wire.NewPool).
	Transport http.RoundTripper
}

// New validates the configuration (backend list and strategy) and
// returns the dispatch proxy. Health probing starts only with Start.
func New(cfg Config) (*proxy.Tier, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	sets, err := newReplicas(cfg.Strategy, len(cfg.Backends))
	if err != nil {
		return nil, err
	}
	p := proxy.Policy{
		Place: sets.place, Overrides: true,
		Pick: pick,
		// The item's own bytes to a backend, the answer its body as sent.
		Route: wire.Route{
			Path: "/v1/schedule", ItemHeader: ItemHeader, NoneLive: noneLive,
			Items: mItems, Dispatches: mDispatches, Retries429: mRetry429,
			Hedges: mHedges, HedgeWins: mHedgeWins, Redispatches: mRedispatch,
		},
		// A schedd backend sits behind a circuit breaker.
		Upstreams: wire.UpstreamNames{
			GaugePrefix: "cluster.backend", StateGauge: "breaker",
			States: [3]string{"closed", "open", "half-open"},
			Opens:  mBreakOpens, Dials: mDials,
		},
		StreamItems: mStreamItems, Batch: tBatch, Stream: tStream,
	}
	if !cfg.DisableHedging {
		p.Route.Hedge = newLatencyWindow(256, cfg)
	}
	return proxy.New(cfg.Tier, cfg.Backends, cfg.Transport, p), nil
}

// pick is the cluster's phase 2: the selectable replica-set member with
// the fewest in-flight dispatches (ties to the lowest id); nil when
// every member's breaker is open. It never sheds: a busy backend
// queues.
func pick(backends []*wire.Upstream, set []int, now time.Time) (*wire.Upstream, string) {
	var best *wire.Upstream
	for _, i := range set {
		b := backends[i]
		if !b.Selectable(now) {
			continue
		}
		if best == nil || b.Inflight() < best.Inflight() {
			best = b
		}
	}
	return best, ""
}

// noneLive words the loss of an item whose whole replica set stayed
// unavailable to the deadline — the networked ErrUnsurvivable.
func noneLive(set []int) string {
	return "cluster: no live replica: all of " + fmt.Sprint(set) + " unavailable"
}

// latencyWindow is a fixed-size ring of recent successful dispatch
// latencies, and the cluster's wire.Hedger: the duplicate-dispatch
// delay is the window's q-quantile clamped to [floor, ceil]. Beside the
// ring it keeps the same samples sorted, so a hedgeable dispatch reads
// the quantile without sorting a copy.
type latencyWindow struct {
	q           float64
	floor, ceil time.Duration

	mu     sync.Mutex
	buf    []float64 // seconds, in arrival order
	next   int
	sorted []float64 // buf's samples ascending; full when len(sorted) == len(buf)
}

// newLatencyWindow sizes the window and takes the hedge settings of
// cfg, defaulted.
func newLatencyWindow(size int, cfg Config) *latencyWindow {
	w := &latencyWindow{q: cfg.HedgeQuantile, floor: cfg.HedgeMinDelay, ceil: cfg.HedgeMaxDelay,
		buf: make([]float64, size), sorted: make([]float64, 0, size)}
	if w.q <= 0 || w.q >= 1 {
		w.q = 0.9
	}
	if w.floor <= 0 {
		w.floor = 2 * time.Millisecond
	}
	if w.ceil <= 0 {
		w.ceil = time.Second
	}
	return w
}

// Delay is the hedge delay; the floor covers a cold start (no
// observations yet).
func (w *latencyWindow) Delay() time.Duration {
	return min(max(w.quantile(w.q), w.floor), w.ceil)
}

// Observe puts d in the ring and in the sorted copy, evicting the
// oldest sample once the ring is full: two binary searches and two
// block moves.
func (w *latencyWindow) Observe(d time.Duration) {
	v := d.Seconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sorted) == len(w.buf) {
		i, _ := slices.BinarySearch(w.sorted, w.buf[w.next])
		w.sorted = slices.Delete(w.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(w.sorted, v)
	w.sorted = slices.Insert(w.sorted, i, v)
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

// quantile returns the q-quantile of the window, or 0 with no
// observations yet.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sorted) == 0 {
		return 0
	}
	return time.Duration(stats.Quantile(w.sorted, q) * float64(time.Second))
}
