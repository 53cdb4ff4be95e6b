package wire

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The two vocabularies the tiers run Upstream under, restated here so
// a rename in internal/cluster or internal/front that moves a metric
// or /healthz string shows up as a diff in this file too.
var (
	clusterNames = UpstreamNames{
		GaugePrefix: "cluster.backend", StateGauge: "breaker",
		States: [3]string{"closed", "open", "half-open"},
		Opens:  obs.GetCounter("cluster.breaker_opens"),
		Dials:  obs.GetCounter("cluster.backend_dials"),
	}
	frontNames = UpstreamNames{
		GaugePrefix: "front.shard", StateGauge: "dead",
		States: [3]string{"live", "dead", "probing"},
		Opens:  obs.GetCounter("front.shard_deaths"),
		Dials:  obs.GetCounter("front.shard_dials"),
	}
)

// TestBreakerLifecycle walks one upstream through the whole breaker
// script — threshold, open window, half-open trial, doubling, cap,
// straggler, reset — once under each tier's names, checking the gauge
// names, gauge values and /healthz labels that tier exposes.
func TestBreakerLifecycle(t *testing.T) {
	for _, tier := range []struct {
		names  *UpstreamNames
		gState *obs.Gauge // upstream 7's state gauge, by its literal name
	}{
		{&clusterNames, obs.GetGauge("cluster.backend.7.breaker")},
		{&frontNames, obs.GetGauge("front.shard.7.dead")},
	} {
		names, gState := tier.names, tier.gState
		t.Run(names.GaugePrefix, func(t *testing.T) {
			// Id 7 keeps the gauges clear of any other test's pool.
			urls := make([]string, 8)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://x%d", i)
			}
			pool := NewPool(urls, nil, UpstreamConfig{
				Threshold:   2,
				BaseBackoff: 100 * time.Millisecond,
				MaxBackoff:  300 * time.Millisecond,
			}, names)
			b := pool.Upstreams[7]
			if b.ID != 7 || b.URL != "http://x7" {
				t.Fatalf("upstream 7 is %d %q", b.ID, b.URL)
			}
			opens := names.Opens.Load()
			expect := func(now time.Time, state int, fails int) {
				t.Helper()
				if got := b.State(now); got != state {
					t.Fatalf("state %d, want %d", got, state)
				}
				if b.Selectable(now) != (state != StateOpen) {
					t.Fatalf("selectable = %v in state %d", b.Selectable(now), state)
				}
				label, inflight, consec := b.Health(now)
				if label != names.States[state] || inflight != 0 || consec != fails {
					t.Fatalf("health row %q/%d/%d, want %q/0/%d", label, inflight, consec, names.States[state], fails)
				}
			}

			t0 := time.Unix(1000, 0)
			expect(t0, StateClosed, 0)
			b.RecordFailure(t0)
			expect(t0, StateClosed, 1) // below threshold
			b.RecordFailure(t0)
			expect(t0, StateOpen, 2)
			if gState.Load() != StateOpen || names.Opens.Load()-opens != 1 {
				t.Fatalf("open not exported: gauge %d, opens %+d", gState.Load(), names.Opens.Load()-opens)
			}
			// Window elapses -> half-open, selectable again.
			t1 := t0.Add(150 * time.Millisecond)
			expect(t1, StateHalfOpen, 2)
			// Failed trial doubles the window.
			b.RecordFailure(t1)
			expect(t1, StateOpen, 3)
			if got := b.ReopenAt(t1).Sub(t1); got != 200*time.Millisecond {
				t.Fatalf("second window = %v, want 200ms", got)
			}
			// A straggling failure inside the window must not extend it.
			b.RecordFailure(t1.Add(50 * time.Millisecond))
			if got := b.ReopenAt(t1).Sub(t1); got != 200*time.Millisecond {
				t.Fatalf("straggler extended window to %v", got)
			}
			// Another failed trial hits the cap.
			t2 := t1.Add(250 * time.Millisecond)
			b.RecordFailure(t2)
			if got := b.ReopenAt(t2).Sub(t2); got != 300*time.Millisecond {
				t.Fatalf("third window = %v, want capped 300ms", got)
			}
			if names.Opens.Load()-opens != 3 {
				t.Fatalf("opens moved by %d over three open transitions", names.Opens.Load()-opens)
			}
			// The earliest-reopen delay is clamped to [1ms, 100ms] and
			// ignores upstreams that are not open.
			if d := pool.ReopenDelay([]int{0, 7}, t2); d != 100*time.Millisecond {
				t.Fatalf("delay before a 300ms horizon = %v, want the 100ms ceiling", d)
			}
			if d := pool.ReopenDelay([]int{7}, t2.Add(270*time.Millisecond)); d != 30*time.Millisecond {
				t.Fatalf("delay 30ms before reopening = %v", d)
			}
			if d := pool.ReopenDelay([]int{7}, t2.Add(300*time.Millisecond-time.Microsecond)); d != time.Millisecond {
				t.Fatalf("delay at the horizon = %v, want the 1ms floor", d)
			}
			// Success closes and resets.
			b.RecordSuccess()
			expect(t2, StateClosed, 0)
			if gState.Load() != StateClosed {
				t.Fatalf("state gauge %d after success", gState.Load())
			}
			if !b.ReopenAt(t2).IsZero() {
				t.Fatal("closed breaker reports a reopen time")
			}
			b.RecordFailure(t2)
			b.RecordFailure(t2)
			if got := b.ReopenAt(t2).Sub(t2); got != 100*time.Millisecond {
				t.Fatalf("backoff not reset after success: %v", got)
			}
		})
	}
}

// TestPostClassifies drives Post against every answer an upstream can
// give and checks the reply kind, the in-flight accounting, and the
// observational item header.
func TestPostClassifies(t *testing.T) {
	gInflight := obs.GetGauge("cluster.backend.0.inflight")
	base := gInflight.Load()
	var u *Upstream
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Item") != "41" || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "headers lost", http.StatusTeapot)
			return
		}
		if u.Inflight() != 1 || gInflight.Load()-base != 1 {
			http.Error(w, "in-flight slot not held", http.StatusTeapot)
			return
		}
		switch r.URL.Path {
		case "/ok":
			fmt.Fprint(w, `{"fine":true}`)
		case "/throttled":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
		case "/broken":
			w.WriteHeader(http.StatusBadGateway)
		case "/envelope":
			WriteError(w, http.StatusUnprocessableEntity, "k does not divide m")
		case "/bare":
			http.Error(w, " plain text \n", http.StatusBadRequest)
		case "/hang":
			<-r.Context().Done()
		}
	}))
	defer ts.Close()
	u = NewPool([]string{ts.URL}, ts.Client().Transport, UpstreamConfig{Threshold: 1}, &clusterNames).Upstreams[0]

	cases := []struct {
		path string
		want Reply
	}{
		{"/ok", Reply{Kind: ReplyOK}},
		{"/throttled", Reply{Kind: ReplyThrottled, RetryAfter: 2 * time.Second}},
		{"/broken", Reply{Kind: ReplyUpstreamErr}},
		{"/envelope", Reply{Kind: ReplyItemErr, ErrMsg: "k does not divide m"}},
		{"/bare", Reply{Kind: ReplyItemErr, ErrMsg: "plain text"}},
	}
	bodies := map[string]string{"/ok": `{"fine":true}`} // a 200's body; every other answer's is released
	for _, tc := range cases {
		got := u.Post(context.Background(), tc.path, "X-Item", 41, []byte(`{}`))
		if got.Kind != tc.want.Kind || string(got.Body.Bytes()) != bodies[tc.path] ||
			got.ErrMsg != tc.want.ErrMsg || got.RetryAfter != tc.want.RetryAfter {
			t.Errorf("%s: %+v, want %+v", tc.path, got, tc.want)
		}
	}

	// A caller that gives up is not an upstream failure.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if got := u.Post(ctx, "/hang", "X-Item", 41, nil); got.Kind != ReplyCancelled {
		t.Errorf("timed-out post: %+v, want cancelled", got)
	}
	// A dead upstream is.
	ts.Close()
	if got := u.Post(context.Background(), "/ok", "X-Item", 41, nil); got.Kind != ReplyUpstreamErr {
		t.Errorf("post to a closed server: %+v, want upstream error", got)
	}
	if u.Inflight() != 0 || gInflight.Load() != base {
		t.Fatalf("in-flight %d (gauge %+d) after every post returned", u.Inflight(), gInflight.Load()-base)
	}
	// Post leaves the breaker to the caller.
	if u.State(time.Now()) != StateClosed {
		t.Fatal("Post moved the breaker")
	}
}

// probeTrip counts probes where the prober sends them: started on
// entry, answered once a response came back.
type probeTrip struct {
	rt                http.RoundTripper
	closed            atomic.Bool
	started, answered atomic.Int64
	afterClose        atomic.Int64
}

func (c *probeTrip) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.closed.Load() {
		c.afterClose.Add(1)
	}
	c.started.Add(1)
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		c.answered.Add(1)
	}
	return resp, err
}

// TestPoolProbesReadmit: the probers open the breaker of an upstream
// whose /healthz fails (non-200, or a body that is not JSON), close it
// again when the daemon recovers, and stop on Close: no probe starts
// once Close has returned. A probe already sent may still reach the
// server after that, so the server's count only has to account for
// every probe sent: each answered one arrived, and none arrived that
// was not sent.
func TestPoolProbesReadmit(t *testing.T) {
	var mode atomic.Int32   // 0 healthy, 1 500, 2 garbage body
	var probes atomic.Int64 // arrived at the server
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/healthz" {
			t.Errorf("probe sent %s %s", r.Method, r.URL.Path)
		}
		probes.Add(1)
		switch mode.Load() {
		case 0:
			fmt.Fprint(w, `{"status":"ok","backends":[]}`)
		case 1:
			w.WriteHeader(http.StatusInternalServerError)
		case 2:
			fmt.Fprint(w, `[not an object`)
		}
	}))
	defer ts.Close()
	trip := &probeTrip{rt: ts.Client().Transport}
	pool := NewPool([]string{ts.URL}, trip, UpstreamConfig{
		Threshold:     1,
		BaseBackoff:   time.Hour, // only a probe can close it in time
		MaxBackoff:    time.Hour,
		ProbeInterval: 2 * time.Millisecond,
	}, &frontNames)
	u := pool.Upstreams[0]
	waitState := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for u.State(time.Now()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("upstream never reached state %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool.Start(ctx)
	pool.Start(ctx) // a second Start is a no-op, not a second set of probers
	for _, bad := range []int32{1, 2} {
		mode.Store(bad)
		waitState(StateOpen)
		mode.Store(0)
		waitState(StateClosed)
	}
	pool.Close()
	trip.closed.Store(true)
	pool.Close() // idempotent
	time.Sleep(20 * time.Millisecond)
	if n := trip.afterClose.Load(); n != 0 {
		t.Fatalf("%d probes started after Close", n)
	}
	if sent, answered, arrived := trip.started.Load(), trip.answered.Load(), probes.Load(); arrived < answered || arrived > sent {
		t.Fatalf("server saw %d probes; %d were sent, %d answered", arrived, sent, answered)
	}
	// Close leaves the pool restartable; cancelling the Start context
	// stops the probers just as well.
	pool.Start(ctx)
	mode.Store(1)
	waitState(StateOpen)
	cancel()
	pool.Close()
}
