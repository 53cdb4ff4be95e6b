// Package front is the production front door over a fleet of clusterd
// shards: the third tier of the serving stack (frontd → clusterd →
// schedd). Where clusterd treats its schedd backends as the paper's
// machine set M and places each item on a replica set, the front tier
// treats whole clusterd instances as independent replica groups — the
// `group:k` topology lifted one level — and consistent-hash-shards
// work items across them.
//
// Three mechanisms make the tier hold up under sustained load:
//
//   - a stable hash ring with virtual nodes (see Ring) assigns every
//     item a home shard deterministically from the shard list alone,
//     so identical frontd replicas agree with no coordination;
//   - admission control sheds before it queues: a global admission
//     cap bounds the items in flight across the tier, and a per-shard
//     in-flight cap bounds each shard's share; work beyond either cap
//     is rejected immediately with 429 + Retry-After (batch) or a
//     per-item shed error (stream), never buffered unboundedly;
//   - fail-stop shard detection re-routes work from a fully-dead
//     shard to its ring successors, so killing a shard degrades
//     latency but loses no items; background /healthz probes readmit
//     a restarted shard.
//
// Observability: front.shed counts every rejected item, front.rerouted
// every item moved off its home shard, front.shard_inflight (and the
// per-shard front.shard.<id>.inflight gauges) the tier's current
// occupancy — the admission property tests pin these to zero after
// drain.
package front

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Front-tier metrics. Counters are monotone; gauges mirror live
// occupancy and drain back to zero with the traffic.
var (
	mItems       = obs.GetCounter("front.items_total")
	mDispatches  = obs.GetCounter("front.dispatches_total")
	mShed        = obs.GetCounter("front.shed")
	mRerouted    = obs.GetCounter("front.rerouted")
	mRetry429    = obs.GetCounter("front.retries_429")
	mShardDeaths = obs.GetCounter("front.shard_deaths")
	mDials       = obs.GetCounter("front.shard_dials")
	mStreamItems = obs.GetCounter("front.stream_items")
	gInflight    = obs.GetGauge("front.inflight")
	gShardTotal  = obs.GetGauge("front.shard_inflight")
	tBatch       = obs.GetTimer("front.batch")
	tStream      = obs.GetTimer("front.stream")
)

// Shard health states in the front tier's vocabulary, also the values
// of the per-shard front.shard.<id>.dead gauge: a clusterd shard is
// live, dead, or (wire.StateHalfOpen) probing. The mechanics are
// wire.Upstream's breaker — the same ones internal/cluster runs one
// layer down.
const (
	shardLive = wire.StateClosed
	shardDead = wire.StateOpen
)

var shardNames = wire.UpstreamNames{
	GaugePrefix: "front.shard",
	StateGauge:  "dead",
	States:      [3]string{"live", "dead", "probing"},
	Opens:       mShardDeaths,
	Dials:       mDials,
}

// shard is one clusterd instance behind the front tier: a
// wire.Upstream whose in-flight count feeds the per-shard admission
// cap and whose fail-stop detection keeps a dead shard off the ring
// walk until a probe (or an elapsed backoff window) readmits it.
type shard struct{ *wire.Upstream }

func (s *shard) state(now time.Time) int { return s.State(now) }

// maxShards bounds the shard list; the ring's successor walk uses a
// 64-bit shard mask, and a front tier wider than this wants a second
// front layer, not a bigger ring.
const maxShards = 64

// Config parameterizes the front tier. The zero value of every field
// except Shards selects the documented default.
type Config struct {
	// Shards lists the clusterd base URLs (e.g. "http://10.0.1.7:9090")
	// forming the tier. At least one and at most 64 are required; the
	// ring is deterministic given this list.
	Shards []string
	// VNodes is the virtual-node count per shard on the hash ring.
	// Higher is smoother, at O(shards·vnodes·log) ring-build cost.
	// Default: 64.
	VNodes int
	// Workers bounds the per-request fan-out (batch) and the in-flight
	// window (stream). Default: 2·GOMAXPROCS.
	Workers int
	// AdmitMax is the global admission cap: the maximum work items in
	// flight across the whole tier. Items beyond it are shed with 429 +
	// Retry-After instead of queueing. Default: 1024.
	AdmitMax int
	// ShardInflight caps one shard's in-flight items. An item whose
	// first live shard is at its cap is shed (capacity is per-shard;
	// only death re-routes). Default (0 or negative): 256; only
	// DisableShedding turns the per-shard cap off.
	ShardInflight int
	// DisableShedding turns both admission caps off; every valid item
	// is dispatched. The metamorphic transparency tests rely on this
	// mode adding no observable behavior over a single shard.
	DisableShedding bool
	// RetryAfterHint is the Retry-After delay advertised on shed
	// responses. Default: 1s.
	RetryAfterHint time.Duration
	// MaxBatch caps the items of one /v1/batch request. Default: 256.
	MaxBatch int
	// MaxStreamItems caps the items of one /v1/stream request.
	// Default: 10000.
	MaxStreamItems int
	// StreamTimeout is the end-to-end deadline of one /v1/stream
	// request. Default: 5m.
	StreamTimeout time.Duration
	// MaxTasks and MaxMachines cap submitted instances, mirroring the
	// clusterd/schedd limits so the front rejects what the tiers below
	// would. Defaults: 100000 and 10000.
	MaxTasks    int
	MaxMachines int
	// MaxBodyBytes caps the request body size. Default: 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the end-to-end deadline of one batch. Default: 60s.
	RequestTimeout time.Duration
	// FailThreshold is the consecutive-failure count that marks a shard
	// dead. Default: 3.
	FailThreshold int
	// FailBaseBackoff is the first dead window; it doubles on every
	// failed readmission trial up to FailMaxBackoff.
	// Defaults: 100ms and 5s.
	FailBaseBackoff time.Duration
	FailMaxBackoff  time.Duration
	// ProbeInterval spaces the background shard /healthz probes that
	// readmit restarted shards. Default: 500ms.
	ProbeInterval time.Duration
	// RetryAfterCap bounds how long a shard's 429 Retry-After is
	// honored before retrying. Default: 2s.
	RetryAfterCap time.Duration
	// Transport overrides the HTTP transport (tests inject failure
	// modes here). Default: the tier's own, built by wire.NewPool — a
	// clone of http.DefaultTransport that keeps its connections.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.AdmitMax <= 0 {
		c.AdmitMax = 1024
	}
	if c.ShardInflight < 0 {
		c.ShardInflight = 0
	}
	if c.ShardInflight == 0 && !c.DisableShedding {
		c.ShardInflight = 256
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxStreamItems <= 0 {
		c.MaxStreamItems = 10000
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Minute
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
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.FailBaseBackoff <= 0 {
		c.FailBaseBackoff = 100 * time.Millisecond
	}
	if c.FailMaxBackoff <= 0 {
		c.FailMaxBackoff = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	return c
}

// Front is the sharded front tier. Create one with New, optionally
// call Start for background shard probing, and mount Handler (or call
// RunBatch directly).
type Front struct {
	cfg    Config
	limits wire.Limits
	ring   *Ring
	pool   *wire.Pool
	shards []*shard // pool.Upstreams, indexed by ring shard id
	route  wire.Route

	// admitted is the global admission level under AdmitMax: a batch is
	// admitted whole or shed whole. The front.inflight gauge mirrors it.
	admitted *wire.Level
}

// New validates the configuration (shard list and ring shape) and
// returns a ready front tier. Shard probing starts only with Start.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("front: no shards configured")
	}
	if len(cfg.Shards) > maxShards {
		return nil, errors.New("front: more than 64 shards; add a second front tier instead")
	}
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	f := &Front{
		cfg:    cfg,
		limits: wire.Limits{MaxTasks: cfg.MaxTasks, MaxMachines: cfg.MaxMachines, MaxBatch: cfg.MaxBatch},
		ring:   ring,
		pool: wire.NewPool(cfg.Shards, cfg.Transport, wire.UpstreamConfig{
			Threshold:     cfg.FailThreshold,
			BaseBackoff:   cfg.FailBaseBackoff,
			MaxBackoff:    cfg.FailMaxBackoff,
			ProbeInterval: cfg.ProbeInterval,
		}, &shardNames),
		admitted: wire.NewLevel(cfg.AdmitMax, gInflight),
	}
	for _, u := range f.pool.Upstreams {
		f.shards = append(f.shards, &shard{u})
	}
	// The front's policy over the shared dispatch loop: a one-item
	// sub-batch to the first selectable shard of the ring walk, shed at
	// the in-flight cap, never hedged — a shard hedges among its own
	// backends.
	f.route = wire.Route{
		Pool: f.pool, Path: "/v1/batch", ItemHeader: ItemHeader, Sole: true,
		Pick:          f.pick,
		NoneLive:      func([]int) string { return "front: no live shard" },
		RetryAfterCap: cfg.RetryAfterCap,
		Items:         mItems, Dispatches: mDispatches, Retries429: mRetry429,
		Shed: mShed, Rerouted: mRerouted, Inflight: gShardTotal,
	}
	return f, nil
}

// Config returns the effective (defaulted) configuration.
func (f *Front) Config() Config { return f.cfg }

// Ring returns the front's hash ring (read-only; the ring is immutable
// once built).
func (f *Front) Ring() *Ring { return f.ring }

// Start launches one background health-probe loop per shard, so a
// restarted shard is readmitted to the ring rotation without waiting
// for a live dispatch to discover it. Probes stop when ctx is
// cancelled or Close is called, whichever comes first.
func (f *Front) Start(ctx context.Context) { f.pool.Start(ctx) }

// Close stops the shard probes started by Start.
func (f *Front) Close() { f.pool.Close() }

// Handler returns the front tier's HTTP surface:
//
//	POST /v1/batch   shard a batch across the clusterd fleet
//	POST /v1/stream  NDJSON: one schedule request per line in, one
//	                 result line out per item, in input order
//	GET  /healthz    per-shard state and in-flight view
//	GET  /metrics    internal/obs snapshot
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /v1/batch", f.handleBatch)
	mux.HandleFunc("POST /v1/stream", f.handleStream)
	return mux
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer tBatch.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)
	}
	body, err := wire.ReadBody(r.Body, r.ContentLength, f.cfg.MaxBodyBytes)
	var req *BatchRequest
	if err == nil {
		req, err = f.decodeBatch(body)
	}
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	n := len(req.Requests)
	if !f.cfg.DisableShedding {
		if !f.admitted.TryAdd(n) {
			// Shed before queue: the whole batch is rejected now, with a
			// retry hint, rather than buffered behind the admission cap.
			mShed.Add(int64(n))
			w.Header().Set("Retry-After", f.retryAfterValue())
			wire.WriteError(w, http.StatusTooManyRequests, "front saturated: admission cap reached")
			return
		}
		defer f.admitted.Sub(n)
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	defer cancel()
	resp, _ := f.RunBatch(ctx, req) // never fails: the ring places every item
	wire.WriteJSON(w, http.StatusOK, resp)
}

// RunBatch dispatches a validated batch across the shard fleet and
// returns the results in input order. It is the library entry point
// (the HTTP handler adds admission control on top): no admission cap
// applies here, matching a handler call with shedding disabled. The
// error is cluster.RunBatch's shape and always nil.
func (f *Front) RunBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	return wire.RunBatch(ctx, len(req.Requests), f.cfg.Workers, func(i int) Item {
		return f.dispatchItem(ctx, i, &req.Requests[i])
	}), nil
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := HealthResponse{Status: "ok", Admitted: f.admitted.Load(), AdmitMax: f.cfg.AdmitMax}
	live := 0
	for _, s := range f.shards {
		st := ShardStatus{ID: s.ID, URL: s.URL}
		st.State, st.Inflight, st.ConsecutiveFailures = s.Health(now)
		if st.State != "dead" {
			live++
		}
		resp.Shards = append(resp.Shards, st)
	}
	if live == 0 {
		// Every shard dead: the tier cannot place anything right now.
		resp.Status = "degraded"
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// retryAfterValue renders the configured shed hint as whole seconds
// (minimum 1, the smallest honest Retry-After).
func (f *Front) retryAfterValue() string {
	secs := int(f.cfg.RetryAfterHint / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
