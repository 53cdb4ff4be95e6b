// Package cluster lifts the paper's two-phase model into a networked
// dispatch proxy: a pool of schedd backends plays the role of the
// machine set M, each incoming work item (a schedule request with an
// uncertain cost estimate) is assigned a replica set M_j over the
// backends using the phase-1 placement package, and phase 2 dispatches
// semi-clairvoyantly — the first idle backend holding a replica runs
// the item, duplicates are cancelled via context, and slow replicas
// are hedged after a quantile-based delay (the tail-at-scale trick the
// paper's replication theorems justify analytically).
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
	"context"
	"errors"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Cluster-wide metrics. Counters are monotone; the per-backend gauges
// (cluster.backend.<id>.inflight, cluster.backend.<id>.breaker) are
// registered by wire.NewPool under backendNames.
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

// backendNames is the cluster tier's vocabulary for its upstreams: a
// schedd backend sits behind a circuit breaker.
var backendNames = wire.UpstreamNames{
	GaugePrefix: "cluster.backend",
	StateGauge:  "breaker",
	States:      [3]string{"closed", "open", "half-open"},
	Opens:       mBreakOpens,
	Dials:       mDials,
}

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
	// Workers bounds the batch fan-out (par.MapCtx). Default:
	// 2·GOMAXPROCS — dispatch workers mostly wait on the network.
	Workers int
	// MaxBatch caps the items of one /v1/batch request. Default: 256.
	MaxBatch int
	// MaxStreamItems caps the items of one /v1/stream request; the
	// stream is cut off with an error line beyond it. Default: 10000.
	MaxStreamItems int
	// StreamTimeout is the end-to-end deadline of one /v1/stream
	// request. Streams are long-lived by design, so they get their own
	// budget instead of RequestTimeout. Default: 5m.
	StreamTimeout time.Duration
	// MaxTasks and MaxMachines cap submitted instances, mirroring the
	// schedd limits so the proxy rejects what its backends would.
	// Defaults: 100000 and 10000.
	MaxTasks    int
	MaxMachines int
	// MaxBodyBytes caps the request body size. Default: 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the end-to-end deadline of one batch; items
	// still retrying when it expires are reported as lost. Default: 60s.
	RequestTimeout time.Duration
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
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker. Default: 3.
	BreakerThreshold int
	// BreakerBaseBackoff is the first open window; it doubles on every
	// failed half-open trial up to BreakerMaxBackoff.
	// Defaults: 100ms and 5s.
	BreakerBaseBackoff time.Duration
	BreakerMaxBackoff  time.Duration
	// ProbeInterval spaces the background /healthz probes that close
	// breakers of recovered backends. Default: 500ms.
	ProbeInterval time.Duration
	// RetryAfterCap bounds how long a 429 Retry-After is honored before
	// re-dispatching. Default: 2s.
	RetryAfterCap time.Duration
	// Transport overrides the HTTP transport (tests inject failure
	// modes here). Default: the tier's own, built by wire.NewPool — a
	// clone of http.DefaultTransport that keeps its connections.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 100000
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxStreamItems <= 0 {
		c.MaxStreamItems = 10000
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Minute
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 2 * time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBaseBackoff <= 0 {
		c.BreakerBaseBackoff = 100 * time.Millisecond
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	return c
}

// Cluster is the dispatch proxy. Create one with New, optionally call
// Start for background health probing, and mount Handler (or call
// RunBatch directly).
type Cluster struct {
	cfg    Config
	limits wire.Limits
	strat  strategy
	// backends is the pool's upstream list: one wire.Upstream per
	// schedd, indexed by the ids replica sets use.
	pool     *wire.Pool
	backends []*wire.Upstream
	route    wire.Route
}

// New validates the configuration (backend list and strategy) and
// returns a ready dispatcher. Health probing starts only with Start.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	strat, err := parseStrategy(cfg.Strategy, len(cfg.Backends))
	if err != nil {
		return nil, err
	}
	pool := wire.NewPool(cfg.Backends, cfg.Transport, wire.UpstreamConfig{
		Threshold:     cfg.BreakerThreshold,
		BaseBackoff:   cfg.BreakerBaseBackoff,
		MaxBackoff:    cfg.BreakerMaxBackoff,
		ProbeInterval: cfg.ProbeInterval,
	}, &backendNames)
	c := &Cluster{
		cfg:      cfg,
		limits:   wire.Limits{MaxTasks: cfg.MaxTasks, MaxMachines: cfg.MaxMachines, MaxBatch: cfg.MaxBatch},
		strat:    strat,
		pool:     pool,
		backends: pool.Upstreams,
	}
	// The cluster's policy over the shared dispatch loop: the item's own
	// bytes to the least-loaded member of its replica set, the answer
	// its body as sent, a slow attempt duplicated once after the latency
	// window's quantile.
	c.route = wire.Route{
		Pool: pool, Path: "/v1/schedule", ItemHeader: ItemHeader,
		Pick:          c.pick,
		NoneLive:      noneLive,
		RetryAfterCap: cfg.RetryAfterCap,
		Items:         mItems, Dispatches: mDispatches, Retries429: mRetry429,
		Hedges: mHedges, HedgeWins: mHedgeWins, Redispatches: mRedispatch,
	}
	if !cfg.DisableHedging {
		c.route.Hedge = newLatencyWindow(256, cfg)
	}
	return c, nil
}

// Config returns the effective (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Start launches one background health-probe loop per backend. Probes
// close the breaker of a recovered backend without waiting for a live
// dispatch to discover it. The probes stop when ctx is cancelled or
// when Close is called, whichever comes first.
func (c *Cluster) Start(ctx context.Context) { c.pool.Start(ctx) }

// Close stops the health probes started by Start.
func (c *Cluster) Close() { c.pool.Close() }

// Handler returns the proxy's HTTP surface:
//
//	POST /v1/batch   dispatch a batch across the backend pool
//	POST /v1/stream  NDJSON: one schedule request per line in, one
//	                 result line out per item, in input order, dispatched
//	                 concurrently under a bounded window
//	GET  /healthz    per-backend breaker and in-flight view
//	GET  /metrics    internal/obs snapshot
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /v1/batch", c.handleBatch)
	mux.HandleFunc("POST /v1/stream", c.handleStream)
	return mux
}

func (c *Cluster) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer tBatch.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	}
	body, err := wire.ReadBody(r.Body, r.ContentLength, c.cfg.MaxBodyBytes)
	var req *BatchRequest
	if err == nil {
		req, err = c.decodeBatch(body)
	}
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	resp, err := c.RunBatch(ctx, req)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := HealthResponse{Status: "ok"}
	live := 0
	for _, b := range c.backends {
		st := BackendStatus{ID: b.ID, URL: b.URL}
		st.Breaker, st.Inflight, st.ConsecutiveFailures = b.Health(now)
		if st.Breaker != "open" {
			live++
		}
		resp.Backends = append(resp.Backends, st)
	}
	if live == 0 {
		// Every breaker open: the pool cannot place anything right now.
		resp.Status = "degraded"
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}
