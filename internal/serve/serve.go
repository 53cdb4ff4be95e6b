// Package serve exposes the algorithm library as a long-running
// HTTP/JSON scheduling service (the daemon behind cmd/schedd). It is
// the serving surface over the paper's two-phase pipeline: clients
// submit problem instances and receive placements, executed schedules,
// makespans, and analytic-bound checks.
//
// Endpoints, each one a tier, cmd/bench or a CLI calls:
//
//	POST /v1/schedule  run one named algorithm on one instance
//	POST /v1/batch     many schedule requests, bounded fan-out
//	POST /v1/stream    NDJSON: one schedule request per line in, one
//	                   result line out per item, flushed as computed
//	GET  /healthz      liveness and saturation
//	GET  /metrics      internal/obs counters, gauges and timers
//
// The server is built to take hostile, concurrent traffic without
// falling over:
//
//   - every request body is capped (http.MaxBytesReader) and decoded
//     strictly (unknown fields and trailing garbage rejected);
//   - instances are validated — NaN/Inf/negative/overflowing times,
//     bad α, bad m, and oversized shapes are rejected with a 400
//     before any solver runs;
//   - solver-heavy endpoints acquire a slot from a fixed-size
//     semaphore; a saturated server answers 429 with Retry-After
//     instead of queueing unboundedly;
//   - each request runs under a context deadline, and batch fan-outs
//     (internal/par.MapCtx) stop dispatching items the moment the
//     deadline expires;
//   - a recovery middleware turns handler panics into 500s so one
//     hostile instance cannot kill the daemon;
//   - graceful shutdown is plain http.Server.Shutdown — handlers hold
//     no state beyond the in-flight request.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Service metrics. Counters are monotone (the stress tests assert
// this); the inflight gauge tracks occupied semaphore slots.
var (
	mReqTotal   = obs.GetCounter("serve.requests_total")
	mResp2xx    = obs.GetCounter("serve.responses_2xx")
	mResp4xx    = obs.GetCounter("serve.responses_4xx")
	mResp5xx    = obs.GetCounter("serve.responses_5xx")
	mRejected   = obs.GetCounter("serve.rejected_429")
	mPanics     = obs.GetCounter("serve.panics_recovered")
	mBatchItems = obs.GetCounter("serve.batch_items")
	mStreamItem = obs.GetCounter("serve.stream_items")
	mInflight   = obs.GetGauge("serve.inflight")
	tSchedule   = obs.GetTimer("serve.schedule")
	tBatch      = obs.GetTimer("serve.batch")
	tStream     = obs.GetTimer("serve.stream")
)

// Config bounds the server. The zero value selects the defaults
// documented on each field.
type Config struct {
	// MaxInflight is the semaphore size shared by the solver-heavy
	// endpoints (/v1/schedule, /v1/batch, /v1/stream). Requests
	// beyond it receive 429. Default: 2·GOMAXPROCS.
	MaxInflight int
	// Workers bounds the fan-out of one /v1/batch request.
	// Default: GOMAXPROCS.
	Workers int
	// MaxTasks caps the task count of a submitted instance.
	// Default: 100000.
	MaxTasks int
	// MaxMachines caps the machine count of a submitted instance (the
	// simulator allocates per-machine state). Default: 10000.
	MaxMachines int
	// MaxBatch caps the number of items in one /v1/batch request.
	// Default: 256.
	MaxBatch int
	// MaxBodyBytes caps the request body size. Default: 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the per-request context deadline.
	// Default: 30s.
	RequestTimeout time.Duration
	// MaxStreamItems caps the items of one /v1/stream request; the
	// stream is cut off with an error line beyond it. Default: 10000.
	MaxStreamItems int
	// StreamTimeout is the context deadline of one /v1/stream request.
	// Streams outlive ordinary requests by design (the client may trickle
	// items), so they get their own, longer budget. Default: 5m.
	StreamTimeout time.Duration
	// ExactLimit is passed to opt.Estimate: instances up to this many
	// tasks are scored against the exact optimum. 0 selects the opt
	// default (20). Keep it small — it bounds per-request CPU.
	ExactLimit int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 100000
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = 10000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxStreamItems <= 0 {
		c.MaxStreamItems = 10000
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Minute
	}
	return c
}

// Server is the scheduling service. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	cfg    Config
	limits wire.Limits
	// slots is the solver semaphore: MaxInflight slots, taken one per
	// gated request without ever waiting.
	slots *wire.Level
	start time.Time
}

// New returns a Server with the given configuration (zero fields get
// defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:    cfg,
		limits: wire.Limits{MaxTasks: cfg.MaxTasks, MaxMachines: cfg.MaxMachines, MaxBatch: cfg.MaxBatch},
		slots:  wire.NewLevel(cfg.MaxInflight, mInflight),
		start:  time.Now(),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the service's HTTP handler. It is safe for
// concurrent use and holds no per-request state outside the request
// goroutine, so graceful shutdown is http.Server.Shutdown.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /v1/schedule", s.gated(tSchedule, s.handleSchedule))
	mux.HandleFunc("POST /v1/batch", s.gated(tBatch, s.handleBatch))
	mux.HandleFunc("POST /v1/stream", s.gatedFor(tStream, s.cfg.StreamTimeout, s.handleStream))
	return s.instrument(mux)
}

// instrument is the outermost middleware: request counting, panic
// recovery, and the body-size cap. It wraps the ResponseWriter so the
// response class counters stay accurate even for handlers that never
// call WriteHeader explicitly.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mReqTotal.Inc()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				mPanics.Inc()
				// One hostile instance must not kill the daemon: swallow
				// the panic and answer 500 if the handler had not begun
				// responding.
				if !sw.wrote {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			switch {
			case sw.status() >= 500:
				mResp5xx.Inc()
			case sw.status() == http.StatusTooManyRequests:
				mRejected.Inc()
				mResp4xx.Inc()
			case sw.status() >= 400:
				mResp4xx.Inc()
			default:
				mResp2xx.Inc()
			}
		}()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(sw, r)
	})
}

// gated wraps a solver-heavy handler with the shared backpressure
// semaphore, the per-request deadline, and a latency timer.
func (s *Server) gated(timer *obs.Timer, h http.HandlerFunc) http.HandlerFunc {
	return s.gatedFor(timer, s.cfg.RequestTimeout, h)
}

// gatedFor is gated with an explicit deadline; /v1/stream uses it to
// run under the longer StreamTimeout while holding one ordinary
// semaphore slot for the whole stream.
func (s *Server) gatedFor(timer *obs.Timer, timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.slots.TryAdd(1) {
			w.Header().Set("Retry-After", "1")
			wire.WriteError(w, http.StatusTooManyRequests, "server saturated: all solver slots busy")
			return
		}
		defer s.slots.Sub(1)
		defer timer.Start()()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// statusWriter records the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.NewResponseController reach the underlying
// ResponseWriter's extension methods (flushing, deadlines, full-duplex
// mode) through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if !w.wrote {
		// Nothing written: ServeMux's 404/405 paths always write, so
		// this is an empty 200 (e.g. a HEAD-like handler).
		return http.StatusOK
	}
	return w.code
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Inflight:      mInflight.Load(),
		MaxInflight:   s.cfg.MaxInflight,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}
