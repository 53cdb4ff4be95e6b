package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Breaker positions of an Upstream, also the values of its state
// gauge. Each tier labels them in its own vocabulary (UpstreamNames).
const (
	StateClosed   = 0 // below the failure threshold: in rotation
	StateOpen     = 1 // inside the backoff window: skipped
	StateHalfOpen = 2 // window elapsed: dispatches admitted as trials
)

// UpstreamNames is a tier's words for its downstream daemons:
// clusterd's schedd backends sit behind a closed/open/half-open
// "breaker", frontd's clusterd shards are live/dead/probing. The
// mechanics are one; the metric names and /healthz labels are per tier.
type UpstreamNames struct {
	// GaugePrefix names the per-upstream gauges:
	// <GaugePrefix>.<id>.inflight and <GaugePrefix>.<id>.<StateGauge>.
	GaugePrefix string
	StateGauge  string
	// States labels StateClosed, StateOpen, StateHalfOpen on /healthz.
	States [3]string
	// Opens counts every transition into StateOpen.
	Opens *obs.Counter
	// Dials counts the connections the pool's own transport opens
	// (NewPool): level once the tier is warm, rising where connections
	// are not being reused.
	Dials *obs.Counter
}

// UpstreamConfig bounds the breaker and paces the prober of every
// upstream in a Pool.
type UpstreamConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	Threshold int
	// BaseBackoff is the first open window; it doubles on every failed
	// half-open trial up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// ProbeInterval spaces (and bounds) the background /healthz probes.
	ProbeInterval time.Duration
}

// Upstream is one downstream daemon as the tier above sees it. The
// in-flight count drives load-aware selection and per-upstream caps;
// the breaker keeps a dead daemon out of the rotation until a probe
// (or an elapsed backoff window) readmits it.
type Upstream struct {
	ID  int
	URL string

	client *http.Client
	cfg    UpstreamConfig
	names  *UpstreamNames

	// inflight is the local dispatch count used for selection; the
	// gauges mirror it (and the breaker state) into /metrics.
	inflight  atomic.Int64
	gInflight *obs.Gauge
	gState    *obs.Gauge

	mu          sync.Mutex
	consecFails int
	backoff     time.Duration
	openUntil   time.Time
}

// Inflight returns the number of Posts currently outstanding.
func (u *Upstream) Inflight() int64 { return u.inflight.Load() }

// State reports the breaker position at now: closed while the
// consecutive-failure count is below threshold, open inside the
// backoff window, half-open once the window elapses (dispatches are
// admitted again as trials; one more failure re-opens with a doubled
// window).
func (u *Upstream) State(now time.Time) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stateLocked(now)
}

func (u *Upstream) stateLocked(now time.Time) int {
	if u.consecFails < u.cfg.Threshold {
		return StateClosed
	}
	if now.Before(u.openUntil) {
		return StateOpen
	}
	return StateHalfOpen
}

// Selectable reports whether a dispatch may be sent at now.
func (u *Upstream) Selectable(now time.Time) bool {
	return u.State(now) != StateOpen
}

// ReopenAt returns when an open breaker admits its next trial (zero
// time when not open).
func (u *Upstream) ReopenAt(now time.Time) time.Time {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.stateLocked(now) != StateOpen {
		return time.Time{}
	}
	return u.openUntil
}

// Health renders the upstream for the tier's /healthz row: the state
// under the tier's label, the in-flight count, and the
// consecutive-failure count.
func (u *Upstream) Health(now time.Time) (state string, inflight int64, consecFails int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.names.States[u.stateLocked(now)], u.inflight.Load(), u.consecFails
}

// RecordSuccess closes the breaker and resets the backoff.
func (u *Upstream) RecordSuccess() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.consecFails = 0
	u.backoff = 0
	u.openUntil = time.Time{}
	u.gState.Set(StateClosed)
}

// RecordFailure counts one transport/5xx failure; crossing the
// threshold opens the breaker, and a failed half-open trial re-opens
// it with a doubled (capped) window.
func (u *Upstream) RecordFailure(now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	wasOpen := u.stateLocked(now) == StateOpen
	u.consecFails++
	if u.consecFails < u.cfg.Threshold {
		return
	}
	switch {
	case u.backoff == 0:
		u.backoff = u.cfg.BaseBackoff
	case !wasOpen:
		// A failure after the open window elapsed: the half-open trial
		// failed, so back off harder.
		u.backoff *= 2
		if u.backoff > u.cfg.MaxBackoff {
			u.backoff = u.cfg.MaxBackoff
		}
	default:
		// Still inside the window (a straggling in-flight failure):
		// keep the current horizon.
		return
	}
	u.openUntil = now.Add(u.backoff)
	u.gState.Set(StateOpen)
	u.names.Opens.Inc()
}

// Probe checks the upstream's /healthz once. A 200 with a JSON body
// means the daemon is reachable — its own view of the tier below
// decides what it can do with the work.
func (u *Upstream) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := u.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("wire: healthz status %d", resp.StatusCode)
	}
	// Every tier's health payload is an object with a status field.
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("wire: healthz decode: %w", err)
	}
	return nil
}

// Reply kinds of one Post.
const (
	ReplyOK          = iota // 200: Body is the response
	ReplyItemErr            // deterministic 4xx: the item itself is bad
	ReplyThrottled          // 429: honor RetryAfter
	ReplyUpstreamErr        // 5xx or connection failure: the upstream is unhealthy
	ReplyCancelled          // ctx done before an answer arrived
)

// Reply is the classified outcome of one Post.
type Reply struct {
	Kind       int
	Body       Body          // ReplyOK: the caller's to release
	ErrMsg     string        // ReplyItemErr
	RetryAfter time.Duration // ReplyThrottled; 0 when the header is absent
}

// Post sends one JSON body to path on the upstream, holding an
// in-flight slot for the duration, and classifies the answer. The item
// index travels in the named header — purely observational (chaos
// tests use it to count executions per item); the daemons ignore
// unknown headers. Post does not touch the breaker: Route.post settles
// it, where a hedge's cancelled loser is told from a failure. A 200's
// body is read into a pooled buffer and handed on in the Reply; every
// other answer's is read, taken apart and released here.
func (u *Upstream) Post(ctx context.Context, path, itemHeader string, idx int, body []byte) Reply {
	u.inflight.Add(1)
	u.gInflight.Inc()
	defer func() {
		u.inflight.Add(-1)
		u.gInflight.Dec()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.URL+path, bytes.NewReader(body))
	if err != nil {
		return Reply{Kind: ReplyUpstreamErr}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(itemHeader, strconv.Itoa(idx))
	resp, err := u.client.Do(req)
	if err != nil {
		return transportReply(ctx)
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength, bufMax)
	if err != nil {
		return transportReply(ctx)
	}
	if resp.StatusCode == http.StatusOK {
		return Reply{Kind: ReplyOK, Body: data}
	}
	defer data.Release()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return Reply{Kind: ReplyThrottled, RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After"))}
	case resp.StatusCode >= 500:
		return Reply{Kind: ReplyUpstreamErr}
	default:
		// Deterministic 4xx: surface the upstream's error envelope
		// verbatim so proxied errors match direct ones.
		msg := string(bytes.TrimSpace(data.Bytes()))
		var e ErrorResponse
		if json.Unmarshal(data.Bytes(), &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return Reply{Kind: ReplyItemErr, ErrMsg: msg}
	}
}

// transportReply classifies a connection-level failure: under a done
// ctx it is the caller giving up, not the upstream failing.
func transportReply(ctx context.Context) Reply {
	if ctx.Err() != nil {
		return Reply{Kind: ReplyCancelled}
	}
	return Reply{Kind: ReplyUpstreamErr}
}

// Pool is a tier's fixed set of upstreams plus the background probers
// that readmit recovered ones.
type Pool struct {
	Upstreams []*Upstream
	cfg       UpstreamConfig
	// transport is the pool's own, nil where the caller brought one.
	transport *http.Transport

	probeMu   sync.Mutex
	probeStop context.CancelFunc
	probeWG   sync.WaitGroup
}

// idleConnsPerHost is how many idle connections the pool's own
// transport keeps per upstream: frontd's default ShardInflight and both
// tiers' default MaxBatch, so a tier at its defaults keeps every
// connection a burst opened and the next burst dials none.
// http.DefaultTransport keeps 2, and a 16-item fan-out closed and
// re-dialled the rest on every request. It caps what is kept, not what
// is open, and IdleConnTimeout (DefaultTransport's 90 s) reaps what
// goes unused.
const idleConnsPerHost = 256

// NewPool builds one Upstream per URL, ids in list order, all posting
// through transport. nil selects the pool's own: a clone of
// http.DefaultTransport — its proxy, dial and TLS settings — that keeps
// idleConnsPerHost connections per upstream under no total, counts its
// dials in names.Dials, and is closed by Close.
func NewPool(urls []string, transport http.RoundTripper, cfg UpstreamConfig, names *UpstreamNames) *Pool {
	p := &Pool{cfg: cfg}
	if def, ok := http.DefaultTransport.(*http.Transport); ok && transport == nil {
		p.transport = def.Clone()
		p.transport.MaxIdleConns, p.transport.MaxIdleConnsPerHost = 0, idleConnsPerHost
		dial := p.transport.DialContext
		p.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			names.Dials.Inc()
			return dial(ctx, network, addr)
		}
		transport = p.transport
	}
	client := &http.Client{Transport: transport}
	for id, url := range urls {
		p.Upstreams = append(p.Upstreams, &Upstream{
			ID: id, URL: url, client: client, cfg: cfg, names: names,
			gInflight: upstreamGauge(names.GaugePrefix, id, "inflight"),
			gState:    upstreamGauge(names.GaugePrefix, id, names.StateGauge),
		})
	}
	return p
}

// upstreamGauge returns the per-upstream gauge <prefix>.<id>.<kind>.
// The name is computed, but its cardinality is bounded by the
// configured pool size, which is fixed for the life of the process.
func upstreamGauge(prefix string, id int, kind string) *obs.Gauge {
	//lint:ignore obsnames per-upstream gauge names are bounded by the configured pool size
	return obs.GetGauge(fmt.Sprintf("%s.%d.%s", prefix, id, kind))
}

// Start launches one background health-probe loop per upstream, so a
// recovered daemon is readmitted without waiting for a live dispatch
// to discover it. The probes stop when ctx is cancelled or when Close
// is called, whichever comes first. A second Start is a no-op.
func (p *Pool) Start(ctx context.Context) {
	p.probeMu.Lock()
	defer p.probeMu.Unlock()
	if p.probeStop != nil {
		return
	}
	ctx, p.probeStop = context.WithCancel(ctx)
	for _, u := range p.Upstreams {
		u := u
		p.probeWG.Add(1)
		go func() {
			defer p.probeWG.Done()
			p.probeLoop(ctx, u)
		}()
	}
}

// Close stops the probes started by Start, waits for them to exit, and
// closes the idle connections of the pool's own transport.
func (p *Pool) Close() {
	p.probeMu.Lock()
	stop := p.probeStop
	p.probeStop = nil
	p.probeMu.Unlock()
	if stop != nil {
		stop()
		p.probeWG.Wait()
	}
	if p.transport != nil {
		p.transport.CloseIdleConnections()
	}
}

// probeLoop polls one upstream's /healthz until ctx is done.
func (p *Pool) probeLoop(ctx context.Context, u *Upstream) {
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		pctx, cancel := context.WithTimeout(ctx, p.cfg.ProbeInterval)
		err := u.Probe(pctx)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			u.RecordFailure(time.Now())
		} else {
			u.RecordSuccess()
		}
	}
}

// ReopenDelay returns how long to wait before some upstream among ids
// becomes selectable again, clamped to keep the caller's retry loop
// responsive to restarts the breaker horizon does not know about.
func (p *Pool) ReopenDelay(ids []int, now time.Time) time.Duration {
	const floor, ceil = time.Millisecond, 100 * time.Millisecond
	d := ceil
	for _, i := range ids {
		if at := p.Upstreams[i].ReopenAt(now); !at.IsZero() {
			if until := at.Sub(now); until < d {
				d = until
			}
		}
	}
	if d < floor {
		d = floor
	}
	return d
}

// RetryDelay turns a 429's Retry-After hint into the wait before the
// next attempt: a short default when the header was absent or
// unparsable, never longer than limit.
func RetryDelay(hint, limit time.Duration) time.Duration {
	if hint <= 0 {
		hint = 100 * time.Millisecond
	}
	if hint > limit {
		hint = limit
	}
	return hint
}

// SleepCtx sleeps d or until ctx is done; it reports whether the full
// sleep elapsed.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
