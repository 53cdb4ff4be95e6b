// Package proxy is the one proxy tier of the serving stack (frontd →
// clusterd → schedd). The paper makes two decisions per work item — a
// phase-1 placement of its replica set M_j, a phase-2 online pick of an
// idle eligible machine — and frontd and clusterd make the same two over
// daemons, one and two levels up. A Tier is everything else, once; a
// Policy is what one tier decides: internal/front walks a consistent-hash
// ring and sheds at capacity, internal/cluster places replica sets,
// picks the least loaded and hedges at a latency quantile.
//
// A Tier serves
//
//	POST /v1/batch   a batch, answered in input order
//	POST /v1/stream  NDJSON: one schedule request per line in, one result
//	                 line out per item, in input order
//	GET  /healthz    per-upstream state and in-flight view
//	GET  /metrics    internal/obs snapshot
//
// on internal/wire's codec, stream pump, upstream pool and dispatch
// loop; SERVING.md's "shared substrate" section is the contract.
package proxy

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Config is what every proxy tier is set by. The zero value of every
// field selects the documented default.
type Config struct {
	// Workers bounds a batch's fan-out and a stream's in-flight window.
	// Default: 2·GOMAXPROCS — dispatch workers mostly wait on the network.
	Workers int
	// MaxBatch caps the items of one /v1/batch request. Default: 256.
	MaxBatch int
	// MaxStreamItems caps the items of one /v1/stream request; the
	// stream is cut off with an error line beyond it. Default: 10000.
	MaxStreamItems int
	// StreamTimeout is the end-to-end deadline of one /v1/stream
	// request, long-lived by design. Default: 5m.
	StreamTimeout time.Duration
	// MaxTasks and MaxMachines cap submitted instances as schedd does, so
	// the tier rejects what the tiers below would. Defaults: 100000, 10000.
	MaxTasks, MaxMachines int
	// MaxBodyBytes caps the request body size. Default: 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the end-to-end deadline of one batch; items
	// still retrying when it expires are reported as lost. Default: 60s.
	RequestTimeout time.Duration
	// RetryAfterCap bounds how long a 429's Retry-After is honored. Default: 2s.
	RetryAfterCap time.Duration
	// Upstream is every upstream's breaker and prober. Defaults: 3
	// failures open it, for 100ms doubling to 5s; probes every 500ms.
	Upstream wire.UpstreamConfig
}

// Flags registers on fs the command-line flags both proxy daemons
// take, each setting its field of c at its default. The breaker's flags
// are each daemon's own: they are worded for its upstreams.
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 0, "batch fan-out workers (0 = 2*GOMAXPROCS)")
	fs.IntVar(&c.MaxBatch, "max-batch", 256, "items per /v1/batch request")
	fs.IntVar(&c.MaxStreamItems, "max-stream-items", 10000, "items per /v1/stream request")
	fs.DurationVar(&c.StreamTimeout, "stream-timeout", 5*time.Minute, "per-stream deadline")
	fs.IntVar(&c.MaxTasks, "max-tasks", 100000, "per-instance task cap")
	fs.IntVar(&c.MaxMachines, "max-machines", 10000, "per-instance machine cap")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", 8<<20, "request body size cap in bytes")
	fs.DurationVar(&c.RequestTimeout, "timeout", 60*time.Second, "per-batch deadline")
	fs.DurationVar(&c.RetryAfterCap, "retry-after-cap", 2*time.Second, "longest honored 429 Retry-After")
}

func (c Config) withDefaults() Config {
	orDefault(&c.Workers, 2*runtime.GOMAXPROCS(0))
	orDefault(&c.MaxBatch, 256)
	orDefault(&c.MaxStreamItems, 10000)
	orDefault(&c.StreamTimeout, 5*time.Minute)
	orDefault(&c.MaxTasks, 100000)
	orDefault(&c.MaxMachines, 10000)
	orDefault(&c.MaxBodyBytes, 8<<20)
	orDefault(&c.RequestTimeout, 60*time.Second)
	orDefault(&c.RetryAfterCap, 2*time.Second)
	orDefault(&c.Upstream.Threshold, 3)
	orDefault(&c.Upstream.BaseBackoff, 100*time.Millisecond)
	orDefault(&c.Upstream.MaxBackoff, 5*time.Second)
	orDefault(&c.Upstream.ProbeInterval, 500*time.Millisecond)
	return c
}

// orDefault replaces a zero or negative setting with its default.
func orDefault[T ~int | ~int64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Policy is what one tier decides, and the words it reports in.
type Policy struct {
	// Place is phase 1 for one request: given its placement override
	// (nil for none) and item count, the Placer of its items, or the
	// error that refuses the request.
	Place func(spec *PlacementSpec, n int) (Placer, error)
	// Overrides: the tier takes a batch's "placement" and a stream's
	// ?strategy= (clusterd); to the others the key is an unknown field.
	Overrides bool
	// Pick is phase 2, wire.Route.Pick over the pool's upstreams: one of
	// an item's candidates to send it to at now, nil when none is
	// selectable, or the words of a shed.
	Pick func(ups []*wire.Upstream, set []int, now time.Time) (u *wire.Upstream, shed string)
	// Route is the rest of the dispatch loop's setting (path, item
	// header, Sole, hedger, loss wording, counters); New fills in Pool,
	// Pick and RetryAfterCap.
	Route wire.Route
	// Admit is the admission level, nil for none. A batch is admitted
	// whole or shed whole with 429 and RetryAfter, a stream item one at
	// a time and shed in band: shed before queue, never buffered.
	// AdmitMax > 0 reports the level on /healthz, shedding on or off.
	Admit      *wire.Level
	AdmitMax   int
	RetryAfter string // whole seconds, the hint of every shed
	// Name opens the tier's own refusals ("front saturated: …").
	Name string
	// Upstreams names the per-upstream metrics and breaker states.
	// Shards reports them on /healthz in frontd's words, "shards" in a
	// "state", instead of clusterd's "backends" behind a "breaker".
	Upstreams wire.UpstreamNames
	Shards    bool
	// StreamItems counts stream lines read; Batch and Stream time the
	// two handlers.
	StreamItems   *obs.Counter
	Batch, Stream *obs.Timer
}

// Placer returns item i's candidates, ids into the pool, in the order
// Pick prefers them. A batch calls it per item in input order before
// any is dispatched, a stream per line as it arrives; from one goroutine
// either way, so a placer may carry state (a greedy running load).
type Placer func(i int, req *serve.ScheduleRequest) []int

// PlacementSpec is a request's phase-1 override: a replication
// strategy by name, or explicit replica sets (Replicas[i] lists the
// upstreams allowed to run item i). The Policy's Place reads it.
type PlacementSpec struct {
	Strategy string  `json:"strategy,omitempty"`
	Replicas [][]int `json:"replicas,omitempty"`
}

// BatchRequest is the /v1/batch body: schedd's "requests", and a
// "placement" where the tier takes one — any payload schedd accepts,
// every tier does (the byte-identity metamorphic tests depend on it).
type BatchRequest struct {
	Requests  []serve.ScheduleRequest `json:"requests"`
	Placement *PlacementSpec          `json:"placement,omitempty"`
}

// HealthResponse is the /healthz payload: the tier's view of its
// upstreams, in its own words (Policy.Shards, Policy.AdmitMax). Status
// is "degraded" when every upstream's breaker is open.
type HealthResponse struct {
	Status string `json:"status"`
	*Admission
	Shards   []UpstreamStatus `json:"shards,omitempty"`
	Backends []UpstreamStatus `json:"backends,omitempty"`
}

// Admission is the admission level — work items in flight across the
// tier — against its cap.
type Admission struct {
	Admitted int64 `json:"admitted"`
	AdmitMax int   `json:"admit_max"`
}

// UpstreamStatus is one upstream's health row: a shard's "state" or a
// backend's "breaker".
type UpstreamStatus struct {
	ID                  int    `json:"id"`
	URL                 string `json:"url"`
	State               string `json:"state,omitempty"`
	Breaker             string `json:"breaker,omitempty"`
	Inflight            int64  `json:"inflight"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// Tier is one proxy tier: a pool of upstreams and the policy over them.
// Create one with New, optionally Start its health probes, and mount
// Handler (or call Decode and RunBatch directly).
type Tier struct {
	cfg    Config
	limits wire.Limits
	pool   *wire.Pool
	p      Policy
}

// New returns a tier over the upstreams at urls posting through
// transport (nil: the pool's own, see wire.NewPool). Probing starts
// only with Start.
func New(cfg Config, urls []string, transport http.RoundTripper, p Policy) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{
		cfg:    cfg,
		limits: wire.Limits{MaxTasks: cfg.MaxTasks, MaxMachines: cfg.MaxMachines, MaxBatch: cfg.MaxBatch},
		p:      p,
	}
	t.pool = wire.NewPool(urls, transport, cfg.Upstream, &t.p.Upstreams)
	ups := t.pool.Upstreams
	t.p.Route.Pool, t.p.Route.RetryAfterCap = t.pool, cfg.RetryAfterCap
	t.p.Route.Pick = func(set []int, now time.Time) (*wire.Upstream, string) { return p.Pick(ups, set, now) }
	return t
}

// Upstreams returns the pool's upstreams, indexed by the ids a Placer
// hands out.
func (t *Tier) Upstreams() []*wire.Upstream { return t.pool.Upstreams }

// Start launches the upstreams' /healthz probes (wire.Pool.Start), so a
// restarted daemon is readmitted before a dispatch finds it.
func (t *Tier) Start(ctx context.Context) { t.pool.Start(ctx) }

// Close stops the probes started by Start.
func (t *Tier) Close() { t.pool.Close() }

// Handler returns the tier's HTTP surface (see the package comment).
func (t *Tier) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", t.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /v1/batch", t.handleBatch)
	mux.HandleFunc("POST /v1/stream", t.handleStream)
	return mux
}

// Decode decodes and fully validates a /v1/batch body: serve.DecodeBatch
// under the tier's limits, and a placement override Place accepts.
// What it accepts is safe to dispatch and stable under re-encoding (the
// fuzz targets enforce that). Items alias body, and a tier whose route
// is not Sole forwards them by sub-slice of it, so body must then be
// the tier's to keep (wire.Body).
func (t *Tier) Decode(body []byte) (*BatchRequest, error) {
	req := new(BatchRequest)
	var err error
	if t.p.Overrides {
		err = serve.DecodeBatch(body, t.limits, req, &req.Requests, &req.Placement)
	} else {
		// The request as a tier without overrides reads it: the same name
		// in a strict-decode error, and "placement" an unknown key.
		type BatchRequest struct {
			Requests  []serve.ScheduleRequest `json:"requests"`
			Placement *PlacementSpec          `json:"-"`
		}
		err = serve.DecodeBatch(body, t.limits, (*BatchRequest)(req), &req.Requests, nil)
	}
	if err == nil && req.Placement != nil {
		_, err = t.p.Place(req.Placement, len(req.Requests))
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Place is phase 1 of a batch: sets[i] lists the upstreams allowed to
// run item i, or the error is the tier's refusal of the placement.
func (t *Tier) Place(req *BatchRequest) (sets [][]int, err error) {
	place, err := t.p.Place(req.Placement, len(req.Requests))
	if err != nil {
		return nil, err
	}
	sets = make([][]int, len(req.Requests))
	for i := range req.Requests {
		sets[i] = place(i, &req.Requests[i])
	}
	return sets, nil
}

// RunBatch places a validated batch and runs each item to completion on
// the dispatch loop (wire.Route.Dispatch) under Workers, returning the
// results in input order. The library entry point: no admission applies
// here. The error is Place's.
func (t *Tier) RunBatch(ctx context.Context, req *BatchRequest) (*wire.Results, error) {
	sets, err := t.Place(req)
	if err != nil {
		return nil, err
	}
	return wire.RunBatch(ctx, len(sets), t.cfg.Workers, func(i int) wire.Result {
		return t.dispatch(ctx, i, &req.Requests[i], sets[i])
	}), nil
}

// dispatch runs one placed item to completion on the dispatch loop. A
// copy posts the item's own bytes — a sub-slice of the request body, so
// a tier that posts them (clusterd) keeps that body past its answer,
// since a cancelled hedge may still be writing it (wire.Body.Keep) —
// or, where the route is Sole (frontd), the one-item batch that wraps
// them: a slice of its own, never pooled, which leaves the request body
// free to go back once the answer is written.
func (t *Tier) dispatch(ctx context.Context, idx int, req *serve.ScheduleRequest, set []int) wire.Result {
	body, err := req.Body()
	if err != nil {
		return wire.Failed(idx, err.Error())
	}
	if t.p.Route.Sole {
		one := make([]byte, 0, len(body)+len(`{"requests":[]}`))
		body = append(append(append(one, `{"requests":[`...), body...), `]}`...)
	}
	return t.p.Route.Dispatch(ctx, idx, set, body)
}

func (t *Tier) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer t.p.Batch.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, t.cfg.MaxBodyBytes)
	}
	body, err := wire.ReadBody(r.Body, r.ContentLength, t.cfg.MaxBodyBytes)
	data := body.Bytes()
	if t.p.Route.Sole {
		// Every copy posts a batch of its own (dispatch) and RunBatch
		// joins every dispatch, so nothing reads the body once the answer
		// is written.
		defer body.Release()
	} else {
		// Copies post sub-slices of it, which a cancelled hedge may still
		// be writing after the answer.
		data = body.Keep()
	}
	var req *BatchRequest
	if err == nil {
		req, err = t.Decode(data)
	}
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	n := len(req.Requests)
	if !t.p.Admit.TryAdd(n) {
		// Shed before queue: the whole batch is refused now, with a retry
		// hint, rather than buffered behind the admission cap.
		t.p.Route.Shed.Add(int64(n))
		w.Header().Set("Retry-After", t.p.RetryAfter)
		wire.WriteError(w, http.StatusTooManyRequests, t.p.Name+" saturated: admission cap reached")
		return
	}
	defer t.p.Admit.Sub(n)
	ctx, cancel := context.WithTimeout(r.Context(), t.cfg.RequestTimeout)
	defer cancel()
	resp, err := t.RunBatch(ctx, req)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
	resp.Release() // the replies the answer copied
}

// handleStream serves POST /v1/stream on wire.Pump (which states the
// ordering and backpressure contract; the window is Workers): each line
// is copied out of the pump's pooled buffer, then decoded, admitted and
// placed as it arrives and dispatched concurrently. The copy is what
// gets forwarded, and is never pooled; the pump releases each answered
// reply once its line is written. ?strategy= is a stream's placement
// override; explicit replica sets need the whole batch up front, so a
// stream has none.
func (t *Tier) handleStream(w http.ResponseWriter, r *http.Request) {
	defer t.p.Stream.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, t.cfg.MaxBodyBytes)
	}
	var spec *PlacementSpec
	if t.p.Overrides {
		if qs := r.URL.Query().Get("strategy"); qs != "" {
			spec = &PlacementSpec{Strategy: qs}
		}
	}
	place, err := t.p.Place(spec, 0)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.cfg.StreamTimeout)
	defer cancel()

	wire.Pump(ctx, w, r.Body,
		wire.Stream{MaxLineBytes: t.cfg.MaxBodyBytes, MaxItems: t.cfg.MaxStreamItems, Window: t.cfg.Workers},
		func(ctx context.Context, idx int, line []byte) (wire.Result, func() wire.Result) {
			t.p.StreamItems.Inc()
			// The pump reuses line; the copy is what gets forwarded.
			req, err := serve.DecodeItem(bytes.Clone(line), t.limits)
			if err != nil {
				return wire.Failed(idx, err.Error()), nil
			}
			if !t.p.Admit.TryAdd(1) {
				// Shed before queue, per item: the stream stays up and
				// ordered, the overload is reported in band.
				t.p.Route.Shed.Inc()
				return wire.Failed(idx, "shed: admission cap reached; retry after "+t.p.RetryAfter+"s"), nil
			}
			set := place(idx, req)
			return wire.Result{}, func() wire.Result {
				defer t.p.Admit.Sub(1)
				return t.dispatch(ctx, idx, req, set)
			}
		})
}

func (t *Tier) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := HealthResponse{Status: "degraded"}
	if t.p.AdmitMax > 0 {
		resp.Admission = &Admission{Admitted: t.p.Admit.Load(), AdmitMax: t.p.AdmitMax}
	}
	rows := make([]UpstreamStatus, 0, len(t.pool.Upstreams))
	for _, u := range t.pool.Upstreams {
		st := UpstreamStatus{ID: u.ID, URL: u.URL}
		var state string
		state, st.Inflight, st.ConsecutiveFailures = u.Health(now)
		if state != t.p.Upstreams.States[wire.StateOpen] {
			resp.Status = "ok" // one upstream can still take work
		}
		if t.p.Shards {
			st.State = state
		} else {
			st.Breaker = state
		}
		rows = append(rows, st)
	}
	if t.p.Shards {
		resp.Shards = rows
	} else {
		resp.Backends = rows
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}
