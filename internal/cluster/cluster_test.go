package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The tier's request and answer types, by the names these tests use.
type (
	BatchRequest  = proxy.BatchRequest
	BatchResponse = wire.Results
	Item          = wire.Result
	PlacementSpec = proxy.PlacementSpec
)

// testBackend wraps a real serve handler with fault injection: down
// simulates a fail-stop crash (connections are hijacked and closed
// without a response, before any work happens), delay simulates work,
// and served counts successful /v1/schedule executions per batch item
// so tests can assert exactly-once completion.
type testBackend struct {
	ts    *httptest.Server
	inner http.Handler
	down  atomic.Bool
	delay atomic.Int64 // nanoseconds of simulated work per request

	mu     sync.Mutex
	served map[string]int // ItemHeader value -> 200 responses
}

func (tb *testBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tb.down.Load() {
		hijackClose(w)
		return
	}
	if d := tb.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	// A crash that lands mid-work loses the in-flight request, like a
	// machine failure under sim.FlatOptions.Failures loses the running task.
	if tb.down.Load() {
		hijackClose(w)
		return
	}
	sw := &statusCapture{ResponseWriter: w}
	tb.inner.ServeHTTP(sw, r)
	if sw.code == http.StatusOK && r.URL.Path == "/v1/schedule" {
		if item := r.Header.Get(ItemHeader); item != "" {
			tb.mu.Lock()
			tb.served[item]++
			tb.mu.Unlock()
		}
	}
}

func (tb *testBackend) executions() map[string]int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make(map[string]int, len(tb.served))
	for k, v := range tb.served {
		out[k] = v
	}
	return out
}

func hijackClose(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test backend: ResponseWriter not hijackable")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

type statusCapture struct {
	http.ResponseWriter
	code int
}

func (s *statusCapture) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusCapture) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// Unwrap lets http.NewResponseController reach the real writer's
// extension methods through the capture.
func (s *statusCapture) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// newTestBackends boots n loopback schedd instances behind fault
// injectors and returns them with their URLs.
func newTestBackends(t *testing.T, n int, scfg serve.Config) ([]*testBackend, []string) {
	t.Helper()
	var bs []*testBackend
	var urls []string
	for i := 0; i < n; i++ {
		tb := &testBackend{
			inner:  serve.New(scfg).Handler(),
			served: map[string]int{},
		}
		tb.ts = httptest.NewServer(tb)
		t.Cleanup(tb.ts.Close)
		bs = append(bs, tb)
		urls = append(urls, tb.ts.URL)
	}
	return bs, urls
}

// testBatch builds a deterministic batch of k small valid items.
func testBatch(k int) *BatchRequest {
	req := &BatchRequest{}
	algos := []string{"lpt-norestriction", "ls-norestriction", "oracle-lpt", "ls-group:2"}
	for i := 0; i < k; i++ {
		body := fmt.Sprintf(
			`{"algorithm":%q,"instance":{"m":4,"alpha":1.5,"estimates":[%d,3,9,1,7,5,2,8]}}`,
			algos[i%len(algos)], i+1)
		var r serve.ScheduleRequest
		if err := wire.DecodeStrict(strings.NewReader(body), &r); err != nil {
			panic(err)
		}
		req.Requests = append(req.Requests, r)
	}
	return req
}

func mustCluster(t *testing.T, cfg Config) *proxy.Tier {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		nb   int
		kind int
		k    int
		ok   bool
	}{
		{"", 4, stratAll, 0, true},
		{"all", 4, stratAll, 0, true},
		{"full", 4, stratAll, 0, true},
		{"none", 4, stratNone, 0, true},
		{"single", 4, stratNone, 0, true},
		{"group:2", 4, stratGroup, 2, true},
		{"GROUP:4", 4, stratGroup, 4, true},
		{"group:3", 4, 0, 0, false}, // 3 does not divide 4
		{"group:0", 4, 0, 0, false},
		{"group:5", 4, 0, 0, false}, // k > nb
		{"group:x", 4, 0, 0, false},
		{"bogus", 4, 0, 0, false},
	}
	for _, tc := range cases {
		got, err := parseStrategy(tc.in, tc.nb)
		if tc.ok != (err == nil) {
			t.Errorf("parseStrategy(%q, %d): err = %v, want ok=%v", tc.in, tc.nb, err, tc.ok)
			continue
		}
		if tc.ok && (got.kind != tc.kind || len(got.groups) != tc.k) {
			t.Errorf("parseStrategy(%q, %d) = %+v", tc.in, tc.nb, got)
		}
	}
}

func TestReplicaSetsStrategies(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c", "http://d"}
	req := testBatch(8)

	t.Run("all", func(t *testing.T) {
		c := mustCluster(t, Config{Backends: urls, Strategy: "all"})
		sets, err := c.Place(req)
		if err != nil {
			t.Fatal(err)
		}
		for i, set := range sets {
			if len(set) != 4 {
				t.Fatalf("item %d: |M_j| = %d, want 4", i, len(set))
			}
		}
	})

	t.Run("none", func(t *testing.T) {
		c := mustCluster(t, Config{Backends: urls, Strategy: "none"})
		sets, err := c.Place(req)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for i, set := range sets {
			if len(set) != 1 {
				t.Fatalf("item %d: |M_j| = %d, want 1", i, len(set))
			}
			counts[set[0]]++
		}
		// Greedy least-load must spread 8 uniform-ish items over 4
		// backends, not pile onto one.
		for b, n := range counts {
			if n > 4 {
				t.Fatalf("backend %d took %d of 8 items", b, n)
			}
		}
		// Determinism.
		again, _ := c.Place(req)
		for i := range sets {
			if sets[i][0] != again[i][0] {
				t.Fatal("none strategy not deterministic")
			}
		}
	})

	t.Run("group", func(t *testing.T) {
		c := mustCluster(t, Config{Backends: urls, Strategy: "group:2"})
		sets, err := c.Place(req)
		if err != nil {
			t.Fatal(err)
		}
		for i, set := range sets {
			if len(set) != 2 {
				t.Fatalf("item %d: |M_j| = %d, want 2", i, len(set))
			}
			if !(set[0] == 0 && set[1] == 1) && !(set[0] == 2 && set[1] == 3) {
				t.Fatalf("item %d: set %v is not a group", i, set)
			}
		}
	})

	t.Run("request-override", func(t *testing.T) {
		c := mustCluster(t, Config{Backends: urls, Strategy: "all"})
		r := testBatch(2)
		r.Placement = &PlacementSpec{Replicas: [][]int{{0, 2}, {1}}}
		sets, err := c.Place(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets[0]) != 2 || sets[0][0] != 0 || sets[0][1] != 2 || len(sets[1]) != 1 {
			t.Fatalf("override ignored: %v", sets)
		}
		r.Placement = &PlacementSpec{Strategy: "none"}
		sets, err = c.Place(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets[0]) != 1 {
			t.Fatalf("strategy override ignored: %v", sets)
		}
	})
}

func TestDecodeBatchRejections(t *testing.T) {
	c := mustCluster(t, Config{
		Backends: []string{"http://a", "http://b", "http://c", "http://d"},
		Tier:     proxy.Config{MaxBatch: 4, MaxTasks: 8, MaxMachines: 8},
	})
	item := `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[1]}}`
	cases := []struct{ name, body string }{
		{"invalid json", `{`},
		{"trailing garbage", `{"requests":[` + item + `]}x`},
		{"unknown field", `{"requests":[` + item + `],"bogus":1}`},
		{"empty batch", `{"requests":[]}`},
		{"too many items", `{"requests":[` + strings.Repeat(item+",", 4) + item + `]}`},
		{"missing algorithm", `{"requests":[{"instance":{"m":1,"alpha":1,"estimates":[1]}}]}`},
		{"missing instance", `{"requests":[{"algorithm":"oracle-lpt"}]}`},
		{"invalid instance", `{"requests":[{"algorithm":"x","instance":{"m":0,"alpha":1,"estimates":[1]}}]}`},
		{"too many tasks", `{"requests":[{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,1,1,1,1,1,1,1,1]}}]}`},
		{"too many machines", `{"requests":[{"algorithm":"x","instance":{"m":9,"alpha":1,"estimates":[1]}}]}`},
		{"empty placement", `{"requests":[` + item + `],"placement":{}}`},
		{"both strategy and replicas", `{"requests":[` + item + `],"placement":{"strategy":"all","replicas":[[0]]}}`},
		{"bad strategy", `{"requests":[` + item + `],"placement":{"strategy":"group:3"}}`},
		{"replica count mismatch", `{"requests":[` + item + `],"placement":{"replicas":[[0],[1]]}}`},
		{"empty replica set", `{"requests":[` + item + `],"placement":{"replicas":[[]]}}`},
		{"replica out of range", `{"requests":[` + item + `],"placement":{"replicas":[[7]]}}`},
		{"replica unsorted", `{"requests":[` + item + `],"placement":{"replicas":[[1,0]]}}`},
		{"replica duplicate", `{"requests":[` + item + `],"placement":{"replicas":[[0,0]]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Decode([]byte(tc.body)); err == nil {
				t.Fatalf("accepted: %s", tc.body)
			}
		})
	}
	// And the valid shapes pass.
	for _, body := range []string{
		`{"requests":[` + item + `]}`,
		`{"requests":[` + item + `],"placement":{"strategy":"group:2"}}`,
		`{"requests":[` + item + `],"placement":{"replicas":[[0,3]]}}`,
	} {
		if _, err := c.Decode([]byte(body)); err != nil {
			t.Fatalf("rejected valid body %s: %v", body, err)
		}
	}
}

func TestRunBatchAgainstLiveBackends(t *testing.T) {
	_, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true})
	req := testBatch(6)
	resp, err := c.RunBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("%d results", len(resp.Results))
	}
	direct := serve.New(serve.Config{}).RunBatch(context.Background(), &serve.BatchRequest{Requests: req.Requests}, 1)
	for i, item := range resp.Results {
		if item.Index != i || item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		// The proxied response must be byte-identical to a direct
		// library run of the same request.
		if direct.Results[i].Error != "" {
			t.Fatal(direct.Results[i].Error)
		}
		wantBytes := direct.Results[i].Response
		var compact bytes.Buffer
		if err := json.Compact(&compact, item.Response); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), wantBytes) {
			t.Fatalf("item %d response differs from direct execution", i)
		}
	}
}

func TestItemErrorMatchesDirectError(t *testing.T) {
	_, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true})
	req := testBatch(2)
	req.Requests[1].Algorithm = "ls-group:7" // 7 never divides m=4
	resp, err := c.RunBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("item 0 failed: %s", resp.Results[0].Error)
	}
	wantErr := serve.New(serve.Config{}).RunBatch(context.Background(), &serve.BatchRequest{Requests: req.Requests}, 1).Results[1].Error
	if wantErr == "" {
		t.Fatal("expected direct error")
	}
	if resp.Results[1].Error != wantErr {
		t.Fatalf("proxied error %q != direct %q", resp.Results[1].Error, wantErr)
	}
}

func TestRedispatchAroundDeadBackend(t *testing.T) {
	bs, urls := newTestBackends(t, 2, serve.Config{})
	bs[0].down.Store(true) // dead from the start
	c := mustCluster(t, Config{
		Backends:       urls,
		DisableHedging: true,
		Tier: proxy.Config{
			RequestTimeout: 10 * time.Second,
			Upstream: wire.UpstreamConfig{
				Threshold:   1,
				BaseBackoff: 10 * time.Millisecond,
			},
		},
	})
	before := mRedispatch.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.RunBatch(ctx, testBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d lost despite live replica: %+v", i, item)
		}
	}
	if mRedispatch.Load() == before {
		t.Fatal("no re-dispatch recorded despite a dead backend")
	}
	if got := bs[0].executions(); len(got) != 0 {
		t.Fatalf("dead backend executed items: %v", got)
	}
}

// TestMalformedAnswerFaultsTheBackendNotTheBatch: a 200 that is not
// JSON is a fault of the backend that sent it. The first backend asked
// for item 1 answers `{"makespan": nope}`; the item must be served by
// the other replica, the first backend's breaker must count the one
// failure, and item 0 must arrive — the whole answer byte for byte what
// a healthy pool gives. (At c0083cd clusterd answered 200 with an empty
// body, and recorded a success.)
//
// Item 0's success is on record before item 1's garbage arrives. Both
// items can pick backend 0 at once (least in flight, both at zero), and
// a success recorded after the failure closes the breaker again — a
// later success is evidence the backend serves, so RecordSuccess resets
// it — which left "closed with 0 failures" in about one run in ten
// under -race. The batch dispatches one item at a time (Workers: 1);
// the stream holds item 1's garbage until the client has read item 0's
// line, which the tier writes only after item 0's dispatch returned.
func TestMalformedAnswerFaultsTheBackendNotTheBatch(t *testing.T) {
	req := testBatch(2)
	want := serve.New(serve.Config{}).RunBatch(context.Background(), &serve.BatchRequest{Requests: req.Requests}, 1)
	for _, r := range want.Results {
		if r.Error != "" {
			t.Fatal(r.Error)
		}
	}
	var wantBatch, wantStream bytes.Buffer
	wire.Encode(&wantBatch, want)
	for _, r := range want.Results {
		var line bytes.Buffer
		wire.Encode(&line, r)
		wantStream.Write(line.Bytes())
	}
	batchBody, _ := json.Marshal(req)

	for _, mode := range []struct {
		path, body, want string
		stream           bool
	}{
		{"/v1/batch", string(batchBody), wantBatch.String(), false},
		{"/v1/stream", streamLines(req), wantStream.String(), true},
	} {
		t.Run(mode.path, func(t *testing.T) {
			bs, urls := newTestBackends(t, 2, serve.Config{})
			var bad atomic.Int32 // the backend that was asked for item 1 first
			bad.Store(-1)
			item0 := make(chan struct{}) // closed once item 0's success is on record
			var once sync.Once
			recorded := func() { once.Do(func() { close(item0) }) }
			t.Cleanup(recorded) // before the backends close, should the test stop early
			if !mode.stream {
				recorded()
			}
			for id, b := range bs {
				id, healthy := int32(id), b.inner
				b.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/v1/schedule" && r.Header.Get(ItemHeader) == "1" && bad.CompareAndSwap(-1, id) {
						_, _ = io.Copy(io.Discard, r.Body)
						<-item0
						fmt.Fprint(w, `{"makespan": nope}`)
						return
					}
					healthy.ServeHTTP(w, r)
				})
			}
			c := mustCluster(t, Config{
				Backends: urls, DisableHedging: true,
				Tier: proxy.Config{Workers: 1, Upstream: wire.UpstreamConfig{Threshold: 1, BaseBackoff: time.Minute}},
			})
			ts := httptest.NewServer(c.Handler())
			t.Cleanup(ts.Close)
			resp, err := http.Post(ts.URL+mode.path, "application/json", strings.NewReader(mode.body))
			if err != nil {
				t.Fatal(err)
			}
			body := bufio.NewReader(resp.Body)
			var got []byte
			if mode.stream {
				got, err = body.ReadBytes('\n')
				recorded()
			}
			if err == nil {
				var rest []byte
				rest, err = io.ReadAll(body)
				got = append(got, rest...)
			}
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, read error %v", resp.StatusCode, err)
			}
			if string(got) != mode.want {
				t.Fatalf("answer differs from a healthy pool's:\n got %q\nwant %q", got, mode.want)
			}
			first := int(bad.Load())
			if first < 0 {
				t.Fatal("no backend was asked for item 1")
			}
			if state, _, fails := c.Upstreams()[first].Health(time.Now()); state != "open" || fails != 1 {
				t.Errorf("backend %d, which answered garbage: breaker %s with %d failures, want open with 1", first, state, fails)
			}
			if n := bs[1-first].executions()["1"]; n != 1 {
				t.Errorf("the other replica served item 1 %d times, want once", n)
			}
		})
	}
}

// TestConnectionsAreReused: over real sockets, 200 sixteen-item batches
// at a fan-out of 8 open a handful of backend connections, not one per
// item: the pool's own transport keeps every connection a burst opened
// (http.DefaultTransport kept 2 per host and re-dialled the rest, 600
// and more over this run). The fan-out itself is what a quiet run
// opens, 8 to 13 seen; the bound is four times it because a worker's
// next post can start while its last connection is still being handed
// back, and dials. The tier's dial counter agrees with what the backend
// saw, and Close leaves no connection goroutine.
func TestConnectionsAreReused(t *testing.T) {
	const workers = 8
	var opened atomic.Int64
	backend := httptest.NewUnstartedServer(serve.New(serve.Config{}).Handler())
	backend.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	baseline := runtime.NumGoroutine()

	c := mustCluster(t, Config{Backends: []string{backend.URL}, DisableHedging: true, Tier: proxy.Config{Workers: workers}})
	dials := mDials.Load()
	req := testBatch(16)
	for i := 0; i < 200; i++ {
		resp, err := c.RunBatch(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, item := range resp.Results {
			if item.Error != "" {
				t.Fatalf("batch %d: %+v", i, item)
			}
		}
	}
	if n := opened.Load(); n > 4*workers {
		t.Errorf("3200 items at a fan-out of %d opened %d backend connections, want at most %d", workers, n, 4*workers)
	}
	if n, d := opened.Load(), mDials.Load()-dials; d != n {
		t.Errorf("cluster.backend_dials rose by %d, the backend accepted %d connections", d, n)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the cluster was built", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHedgeWinsAgainstSlowBackend(t *testing.T) {
	bs, urls := newTestBackends(t, 2, serve.Config{})
	bs[0].delay.Store(int64(400 * time.Millisecond)) // slow primary
	c := mustCluster(t, Config{
		Backends:      urls,
		HedgeMinDelay: 5 * time.Millisecond,
	})
	beforeFired, beforeWon := mHedges.Load(), mHedgeWins.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := testBatch(1)
	resp, err := c.RunBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Response == nil {
		t.Fatalf("hedged item failed: %+v", resp.Results[0])
	}
	if mHedges.Load() == beforeFired {
		t.Fatal("no hedge fired against a 400ms backend with a 5ms delay")
	}
	if mHedgeWins.Load() == beforeWon {
		t.Fatal("hedge did not win against a 400ms primary")
	}
}

func TestHonors429RetryAfter(t *testing.T) {
	// A backend that throttles the first two attempts, then serves.
	var calls atomic.Int64
	inner := serve.New(serve.Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/schedule" && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"saturated"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := mustCluster(t, Config{Backends: []string{ts.URL}, DisableHedging: true})
	before := mRetry429.Load()
	resp, err := c.RunBatch(context.Background(), testBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("throttled item not retried: %+v", resp.Results[0])
	}
	if mRetry429.Load()-before < 2 {
		t.Fatalf("retries_429 delta = %d, want >= 2", mRetry429.Load()-before)
	}
}

func TestNoLiveReplicaTimesOut(t *testing.T) {
	bs, urls := newTestBackends(t, 2, serve.Config{})
	bs[0].down.Store(true)
	bs[1].down.Store(true)
	c := mustCluster(t, Config{
		Backends:       urls,
		DisableHedging: true,
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:   1,
				BaseBackoff: time.Minute, // one fault each, then the deadline falls in the wait
			},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	resp, err := c.RunBatch(ctx, testBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "cluster: no live replica: all of [0 1] unavailable: context deadline exceeded"
	if got := resp.Results[0].Error; got != want {
		t.Fatalf("item with every replica dead: %q, want %q", got, want)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	bs, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{
		Backends:       urls,
		DisableHedging: true,
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:   1,
				BaseBackoff: time.Minute,
			},
		},
	})
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	// Run traffic so per-backend gauges exist, with one backend dead so
	// the breaker view is interesting. A dispatch only lands on dead
	// backend 1 while backend 0 holds work in flight (least-loaded
	// selection, ties to the lowest id), so backend 0 is slowed: the four
	// concurrent dispatches overlap by construction, not by how long an
	// item happens to take (with the one-pass codec it stopped taking long
	// enough one run in five).
	bs[0].delay.Store(int64(20 * time.Millisecond))
	bs[1].down.Store(true)
	body, _ := json.Marshal(testBatch(4))
	resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health proxy.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(health.Backends) != 2 {
		t.Fatalf("healthz lists %d backends", len(health.Backends))
	}
	if health.Backends[1].Breaker != "open" {
		t.Fatalf("dead backend breaker %q, want open", health.Backends[1].Breaker)
	}

	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{
		"cluster.backend.0.inflight", "cluster.backend.0.breaker",
		"cluster.hedges_fired", "cluster.hedge_wins",
		"cluster.redispatches", "cluster.items_total", "cluster.backend_dials",
	} {
		if !strings.Contains(data.String(), name) {
			t.Fatalf("/metrics missing %s:\n%s", name, data.String())
		}
	}
}

func TestProbeReadmitsRestartedBackend(t *testing.T) {
	bs, urls := newTestBackends(t, 1, serve.Config{})
	c := mustCluster(t, Config{
		Backends:       urls,
		DisableHedging: true,
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:     1,
				BaseBackoff:   time.Hour, // only a probe can close it in time
				ProbeInterval: 5 * time.Millisecond,
			},
		},
	})
	c.Start(context.Background())
	bs[0].down.Store(true)
	c.Upstreams()[0].RecordFailure(time.Now())
	c.Upstreams()[0].RecordFailure(time.Now())
	if c.Upstreams()[0].State(time.Now()) != wire.StateOpen {
		t.Fatal("breaker not open")
	}
	bs[0].down.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for c.Upstreams()[0].State(time.Now()) != wire.StateClosed {
		if time.Now().After(deadline) {
			t.Fatal("probe never closed the breaker of a recovered backend")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLatencyWindowQuantile(t *testing.T) {
	w := newLatencyWindow(4, Config{HedgeQuantile: 0.5, HedgeMinDelay: 15 * time.Millisecond, HedgeMaxDelay: 32 * time.Millisecond})
	if got := w.quantile(0.9); got != 0 {
		t.Fatalf("empty window quantile = %v", got)
	}
	if got := w.Delay(); got != 15*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want the 15ms floor", got)
	}
	for _, ms := range []int{10, 20, 30, 40} {
		w.Observe(time.Duration(ms) * time.Millisecond)
	}
	if got := w.Delay(); got != 25*time.Millisecond {
		t.Fatalf("hedge delay = %v, want the 25ms median of 10..40ms", got)
	}
	q := w.quantile(1.0)
	if q != 40*time.Millisecond {
		t.Fatalf("max quantile = %v, want 40ms", q)
	}
	// The ring wraps: a fifth observation evicts the first.
	w.Observe(50 * time.Millisecond)
	if q := w.quantile(1.0); q != 50*time.Millisecond {
		t.Fatalf("post-wrap max = %v, want 50ms", q)
	}
	// The hedge delay is the configured quantile, clamped.
	if got := w.Delay(); got != 32*time.Millisecond {
		t.Fatalf("hedge delay = %v, want the 35ms median of 20..50ms cut to the 32ms cap", got)
	}

	// The sorted copy kept beside the ring answers what sorting the
	// window's samples answers, at every step of three laps of the ring,
	// duplicates and evictions of equal values included.
	w = newLatencyWindow(8, Config{})
	src := rand.New(rand.NewPCG(46, 3))
	var seen []float64
	for k := range 24 {
		d := time.Duration(1+src.IntN(6)) * time.Millisecond
		if k%5 == 0 {
			d += time.Duration(src.IntN(1000)) * time.Microsecond
		}
		w.Observe(d)
		seen = append(seen, d.Seconds())
		window := slices.Clone(seen[max(0, len(seen)-8):])
		slices.Sort(window)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			want := time.Duration(stats.Quantile(window, q) * float64(time.Second))
			if got := w.quantile(q); got != want {
				t.Fatalf("after %d samples the %v-quantile reads %v, sorting the window gives %v", k+1, q, got, want)
			}
		}
	}
}
