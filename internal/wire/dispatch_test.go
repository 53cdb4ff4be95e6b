package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeUp is one scripted upstream of the dispatcher tests: request k
// plays steps[k] (the last step repeats). The steps:
//
//	ok       200, the body naming this upstream
//	item     422 with an error envelope: the item's own fault
//	429      throttled, Retry-After absent
//	fault    502
//	garbage  200 with a truncated body
//	hang     no answer until the caller gives up
//	slow     ok after 30ms
//	+429, +fault  that answer, held until the other upstream has been asked
type fakeUp struct {
	id      int
	peer    *fakeUp
	arrived chan struct{} // closed by the first request
	once    sync.Once

	mu    sync.Mutex
	steps []string
	hits  int
}

func (f *fakeUp) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The server watches for a hang-up, and so cancels r.Context(),
	// only once the request body has been read.
	_, _ = io.Copy(io.Discard, r.Body)
	if r.URL.Path == "/hold" { // the busy-candidate case's occupier, not a dispatch
		<-r.Context().Done()
		return
	}
	f.once.Do(func() { close(f.arrived) })
	f.mu.Lock()
	step := "ok"
	if len(f.steps) > 0 {
		step = f.steps[min(f.hits, len(f.steps)-1)]
	}
	f.hits++
	f.mu.Unlock()
	if step[0] == '+' {
		select {
		case <-f.peer.arrived:
		case <-r.Context().Done():
			return
		}
		step = step[1:]
	}
	switch step {
	case "slow":
		time.Sleep(30 * time.Millisecond)
		fallthrough
	case "ok":
		if r.URL.Path == "/sole" {
			fmt.Fprintf(w, "{\"results\":[{\"index\":0,\"response\":{\"up\":%d}}]}\n", f.id)
		} else {
			fmt.Fprintf(w, `{"up":%d}`, f.id)
		}
	case "item":
		WriteError(w, http.StatusUnprocessableEntity, "k does not divide m")
	case "429":
		w.WriteHeader(http.StatusTooManyRequests)
	case "fault":
		w.WriteHeader(http.StatusBadGateway)
	case "garbage":
		fmt.Fprint(w, `{"results":`)
	case "hang":
		<-r.Context().Done()
	}
}

// callerTrip sorts every post by the goroutine it was made on: the one
// that called Dispatch, or one the attempt started.
type callerTrip struct {
	rt      http.RoundTripper
	on, off atomic.Int64
}

func (c *callerTrip) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/hold" {
		buf := make([]byte, 64<<10)
		if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Route).Dispatch")) {
			c.on.Add(1)
		} else {
			c.off.Add(1)
		}
	}
	return c.rt.RoundTrip(req)
}

// fakeHedger hands out scripted delays (the last repeats) and counts
// what it is shown.
type fakeHedger struct {
	mu       sync.Mutex
	delays   []time.Duration
	asked    int
	observed int
}

func (h *fakeHedger) Delay() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.delays[min(h.asked, len(h.delays)-1)]
	h.asked++
	return d
}

func (h *fakeHedger) Observe(time.Duration) {
	h.mu.Lock()
	h.observed++
	h.mu.Unlock()
}

// The two pick rules of the tiers, restated over a bare pool: frontd's
// first selectable candidate, shed at an in-flight cap of one, and
// clusterd's least in-flight.
func pickFirstOrShed(p *Pool) func([]int, time.Time) (*Upstream, string) {
	return func(set []int, now time.Time) (*Upstream, string) {
		for _, i := range set {
			if u := p.Upstreams[i]; u.Selectable(now) {
				if u.Inflight() >= 1 {
					return nil, fmt.Sprintf("shed: upstream %d full", u.ID)
				}
				return u, ""
			}
		}
		return nil, ""
	}
}

func pickLeastInflight(p *Pool) func([]int, time.Time) (*Upstream, string) {
	return func(set []int, now time.Time) (*Upstream, string) {
		var best *Upstream
		for _, i := range set {
			if u := p.Upstreams[i]; u.Selectable(now) && (best == nil || u.Inflight() < best.Inflight()) {
				best = u
			}
		}
		return best, ""
	}
}

// dispatchWant is what one Dispatch must leave behind.
type dispatchWant struct {
	response, err string // exactly one is set
	hits          [2]int // dispatch requests each upstream saw
	dispatches    int64
	retries       int64
	shed          int64
	hedges, wins  int64
	rerouted      int64 // kept by the front-like policy only
	redispatches  int64 // kept by the cluster-like policy only
	states        [2]int
	fails         [2]int
}

type dispatchCase struct {
	name    string
	steps   [2][]string
	set     []int         // default [0 1]
	prefail [2]int        // failures recorded before the dispatch (the threshold is 2)
	backoff time.Duration // the open window; default an hour
	hold    bool          // candidate 0 has a post in flight throughout
	timeout time.Duration // of the dispatch; default none
	// delays, when set, are the hedge delays and the case runs hedged
	// only; otherwise it runs both unhedged and under a Hedger whose
	// delay never elapses, to the same end.
	delays []time.Duration
	// want is what the front-like policy leaves (sole envelope, first
	// selectable or shed); least, when set, what the cluster-like one
	// does instead (the body itself, least in flight).
	want  dispatchWant
	least *dispatchWant
}

var closed2, openClosed = [2]int{StateClosed, StateClosed}, [2]int{StateOpen, StateClosed}

var dispatchCases = []dispatchCase{
	{name: "ok closes the breaker", prefail: [2]int{1, 0},
		want: dispatchWant{response: `{"up":0}`, hits: [2]int{1, 0}, dispatches: 1, states: closed2}},
	{name: "item error is final and closes the breaker", steps: [2][]string{{"item"}}, prefail: [2]int{1, 0},
		want: dispatchWant{err: "k does not divide m", hits: [2]int{1, 0}, dispatches: 1, states: closed2}},
	{name: "429 waits and asks again", steps: [2][]string{{"429", "ok"}}, prefail: [2]int{1, 0},
		want: dispatchWant{response: `{"up":0}`, hits: [2]int{2, 0}, dispatches: 2, retries: 1, redispatches: 1, states: closed2}},
	{name: "faults open the breaker and the item moves on", steps: [2][]string{{"fault"}},
		want: dispatchWant{response: `{"up":1}`, hits: [2]int{2, 1}, dispatches: 3, rerouted: 1, redispatches: 2,
			states: openClosed, fails: [2]int{2, 0}}},
	// In both modes: a body that is not valid JSON is nobody's answer.
	{name: "malformed 200", steps: [2][]string{{"garbage"}},
		want: dispatchWant{response: `{"up":1}`, hits: [2]int{2, 1}, dispatches: 3, rerouted: 1, redispatches: 2,
			states: openClosed, fails: [2]int{2, 0}}},
	{name: "cancelled mid-post is not a failure", steps: [2][]string{{"hang"}}, timeout: 40 * time.Millisecond,
		want: dispatchWant{err: "cancelled: context deadline exceeded", hits: [2]int{1, 0}, dispatches: 1, states: closed2}},
	{name: "busy first candidate", hold: true,
		want:  dispatchWant{err: "shed: upstream 0 full", shed: 1, states: closed2},
		least: &dispatchWant{response: `{"up":1}`, hits: [2]int{0, 1}, dispatches: 1, states: closed2}},
	{name: "none live until the deadline", prefail: [2]int{2, 2}, timeout: 40 * time.Millisecond,
		want: dispatchWant{err: "none live of [0 1]: context deadline exceeded",
			states: [2]int{StateOpen, StateOpen}, fails: [2]int{2, 2}}},
	{name: "none live until a window elapses", prefail: [2]int{2, 2}, backoff: 50 * time.Millisecond,
		want: dispatchWant{response: `{"up":0}`, hits: [2]int{1, 0}, dispatches: 1, redispatches: 1,
			states: [2]int{StateClosed, StateHalfOpen}, fails: [2]int{0, 2}}},
	{name: "one candidate", set: []int{1},
		want: dispatchWant{response: `{"up":1}`, hits: [2]int{0, 1}, dispatches: 1, states: closed2}},

	{name: "hedge wins and the cancelled loser is not a failure", steps: [2][]string{{"hang"}},
		delays: []time.Duration{5 * time.Millisecond},
		want: dispatchWant{response: `{"up":1}`, hits: [2]int{1, 1}, dispatches: 2, hedges: 1, wins: 1,
			rerouted: 0, states: closed2}},
	{name: "every copy failed and the 429 outranks the fault", steps: [2][]string{{"+429", "ok"}, {"fault"}},
		delays: []time.Duration{5 * time.Millisecond, time.Hour},
		want: dispatchWant{response: `{"up":0}`, hits: [2]int{2, 1}, dispatches: 3, hedges: 1, retries: 1, redispatches: 1,
			states: closed2, fails: [2]int{0, 1}}},
	{name: "every copy faulted", steps: [2][]string{{"+fault", "ok"}, {"fault"}},
		delays: []time.Duration{5 * time.Millisecond, time.Hour},
		want: dispatchWant{response: `{"up":0}`, hits: [2]int{2, 1}, dispatches: 3, hedges: 1, redispatches: 1,
			states: closed2, fails: [2]int{0, 1}}},
	{name: "hedge has nowhere to go", steps: [2][]string{{"slow"}}, prefail: [2]int{0, 2},
		delays: []time.Duration{5 * time.Millisecond},
		want:   dispatchWant{response: `{"up":0}`, hits: [2]int{1, 0}, dispatches: 1, states: [2]int{StateClosed, StateOpen}, fails: [2]int{0, 2}}},
	{name: "cancelled with both copies out", steps: [2][]string{{"hang"}, {"hang"}}, timeout: 60 * time.Millisecond,
		delays: []time.Duration{5 * time.Millisecond},
		want:   dispatchWant{err: "cancelled: context deadline exceeded", hits: [2]int{1, 1}, dispatches: 2, hedges: 1, states: closed2}},
}

// TestDispatch runs the one dispatch loop where it lives: every reply
// kind, both pick rules, hedged and not, checking the item's answer,
// what each upstream saw, every counter, the breakers, and the
// goroutines — an attempt that cannot hedge posts on its caller's, and
// a hedged one leaves none behind.
func TestDispatch(t *testing.T) {
	for _, tc := range dispatchCases {
		for _, least := range []bool{false, true} {
			for _, hedged := range []bool{false, true} {
				if tc.delays != nil && !hedged {
					continue
				}
				policy := map[bool]string{false: "first-or-shed", true: "least-inflight"}[least]
				t.Run(fmt.Sprintf("%s/%s/hedge=%v", tc.name, policy, hedged), func(t *testing.T) {
					runDispatchCase(t, tc, least, hedged)
				})
			}
		}
	}
}

func runDispatchCase(t *testing.T, tc dispatchCase, least, hedged bool) {
	before := runtime.NumGoroutine()
	ups := []*fakeUp{{id: 0, steps: tc.steps[0]}, {id: 1, steps: tc.steps[1]}}
	ups[0].peer, ups[1].peer = ups[1], ups[0]
	var urls []string
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	trip := &callerTrip{rt: tr}
	for _, u := range ups {
		u.arrived = make(chan struct{})
		ts := httptest.NewServer(u)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	backoff := tc.backoff
	if backoff == 0 {
		backoff = time.Hour
	}
	pool := NewPool(urls, trip,
		UpstreamConfig{Threshold: 2, BaseBackoff: backoff, MaxBackoff: backoff},
		&UpstreamNames{GaugePrefix: "wiretest.up", StateGauge: "state", Opens: new(obs.Counter)})
	for i, n := range tc.prefail {
		for ; n > 0; n-- {
			pool.Upstreams[i].RecordFailure(time.Now())
		}
	}

	c := struct{ items, dispatches, retries, shed, hedges, wins, rerouted, redispatches obs.Counter }{}
	inflight := new(obs.Gauge)
	r := &Route{
		Pool: pool, ItemHeader: "X-Item", RetryAfterCap: 5 * time.Millisecond,
		NoneLive: func(set []int) string { return fmt.Sprintf("none live of %v", set) },
		Items:    &c.items, Dispatches: &c.dispatches, Retries429: &c.retries,
		Shed: &c.shed, Hedges: &c.hedges, HedgeWins: &c.wins,
	}
	want := tc.want
	if least {
		r.Path, r.Pick, r.Redispatches = "/plain", pickLeastInflight(pool), &c.redispatches
		if tc.least != nil {
			want = *tc.least
		}
		want.rerouted = 0
	} else {
		r.Path, r.Sole, r.Pick, r.Rerouted, r.Inflight = "/sole", true, pickFirstOrShed(pool), &c.rerouted, inflight
		want.redispatches = 0
	}
	var hedger *fakeHedger
	if hedged {
		hedger = &fakeHedger{delays: tc.delays}
		if tc.delays == nil {
			hedger.delays = []time.Duration{time.Hour}
		}
		r.Hedge = hedger
	}

	ctx := context.Background()
	if tc.hold {
		hctx, release := context.WithCancel(ctx)
		held := make(chan struct{})
		go func() {
			defer close(held)
			pool.Upstreams[0].Post(hctx, "/hold", "X-Item", 0, nil)
		}()
		defer func() { release(); <-held }()
		for pool.Upstreams[0].Inflight() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if tc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, tc.timeout)
		defer cancel()
	}
	set := tc.set
	if set == nil {
		set = []int{0, 1}
	}
	got := r.Dispatch(ctx, 7, set, []byte(`{}`))

	if got.Index != 7 || string(got.Response) != want.response || got.Error != want.err {
		t.Errorf("result %d %q %q, want 7 %q %q", got.Index, got.Response, got.Error, want.response, want.err)
	}
	// A cancelled loser is still on its way out: let it settle before
	// the breakers are read.
	held := int64(0)
	if tc.hold {
		held = 1
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Upstreams[0].Inflight() != held || pool.Upstreams[1].Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("posts still in flight after Dispatch returned")
		}
		time.Sleep(time.Millisecond)
	}
	now := time.Now()
	for i, u := range pool.Upstreams {
		ups[i].mu.Lock()
		hits := ups[i].hits
		ups[i].mu.Unlock()
		_, _, fails := u.Health(now)
		if hits != want.hits[i] || u.State(now) != want.states[i] || fails != want.fails[i] {
			t.Errorf("upstream %d: %d hits, state %d, %d consecutive failures; want %d, %d, %d",
				i, hits, u.State(now), fails, want.hits[i], want.states[i], want.fails[i])
		}
	}
	for _, cnt := range []struct {
		name      string
		got, want int64
	}{
		{"items", c.items.Load(), 1}, {"dispatches", c.dispatches.Load(), want.dispatches},
		{"retries_429", c.retries.Load(), want.retries}, {"shed", c.shed.Load(), want.shed},
		{"hedges", c.hedges.Load(), want.hedges}, {"hedge_wins", c.wins.Load(), want.wins},
		{"rerouted", c.rerouted.Load(), want.rerouted}, {"redispatches", c.redispatches.Load(), want.redispatches},
		{"inflight gauge", inflight.Load(), 0},
	} {
		if cnt.got != cnt.want {
			t.Errorf("%s = %d, want %d", cnt.name, cnt.got, cnt.want)
		}
	}
	if hedged && want.response != "" && hedger.observed == 0 {
		t.Error("the hedger was shown no round trip of a served item")
	}

	// Whether an attempt can hedge is read from the route and the set,
	// and one that cannot costs no goroutine.
	if on, off := trip.on.Load(), trip.off.Load(); hedged && len(set) > 1 {
		if on != 0 {
			t.Errorf("%d posts of a hedged attempt made on the caller's goroutine", on)
		}
	} else if off != 0 {
		t.Errorf("%d posts of an attempt that cannot hedge left the caller's goroutine", off)
	}
	if !tc.hold {
		tr.CloseIdleConnections()
		for runtime.NumGoroutine() > before+2 { // the two servers' accept loops
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, started with %d: the attempt leaked", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
