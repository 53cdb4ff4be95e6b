package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/wire"
)

// testShard wraps a full clusterd-over-schedd stack with fault
// injection: down simulates a whole-shard fail-stop crash (connections
// hijacked and closed before any work happens — the shard process is
// gone), delay simulates work, and served counts 200-completed
// /v1/batch sub-requests per front item so tests can assert
// exactly-once dispatch at the tier boundary.
type testShard struct {
	ts     *httptest.Server
	schedd *httptest.Server
	c      *proxy.Tier
	inner  http.Handler
	down   atomic.Bool
	delay  atomic.Int64 // nanoseconds of simulated work per request

	mu     sync.Mutex
	served map[string]int // ItemHeader value -> 200 responses
}

func (s *testShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		hijackClose(w)
		return
	}
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	// A crash landing mid-work loses the in-flight request, like a
	// whole-machine failure loses its running tasks.
	if s.down.Load() {
		hijackClose(w)
		return
	}
	sw := &statusCapture{ResponseWriter: w}
	s.inner.ServeHTTP(sw, r)
	if sw.code == http.StatusOK && r.URL.Path == "/v1/batch" {
		if item := r.Header.Get(ItemHeader); item != "" {
			s.mu.Lock()
			s.served[item]++
			s.mu.Unlock()
		}
	}
}

func (s *testShard) executions() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.served))
	for k, v := range s.served {
		out[k] = v
	}
	return out
}

func hijackClose(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test shard: ResponseWriter not hijackable")
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

// newTestShards boots n loopback clusterd shards — each a real cluster
// dispatcher over its own real schedd — behind fault injectors.
func newTestShards(t *testing.T, n int) ([]*testShard, []string) {
	t.Helper()
	var shards []*testShard
	var urls []string
	for i := 0; i < n; i++ {
		schedd := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(schedd.Close)
		c, err := cluster.New(cluster.Config{
			Backends:       []string{schedd.URL},
			DisableHedging: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		s := &testShard{schedd: schedd, c: c, inner: c.Handler(), served: map[string]int{}}
		s.ts = httptest.NewServer(s)
		t.Cleanup(s.ts.Close)
		shards = append(shards, s)
		urls = append(urls, s.ts.URL)
	}
	return shards, urls
}

// frontBatch builds a deterministic batch of k small valid items, each
// with a unique leading estimate so items are distinct ring keys.
func frontBatch(k int) *BatchRequest {
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

// The tier's request and answer types, by the names these tests use.
type (
	BatchRequest  = proxy.BatchRequest
	BatchResponse = wire.Results
	Item          = wire.Result
)

func mustFront(t *testing.T, cfg Config) *proxy.Tier {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Shards: []string{"http://a"}}.withDefaults()
	if cfg.AdmitMax != 1024 || cfg.ShardInflight != 256 || cfg.RetryAfterHint != time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
	// Only transparency mode turns the per-shard cap off: zero and
	// negative both select the default, and no-shed clears a set cap.
	for _, tc := range []struct {
		in   Config
		want int
	}{
		{Config{ShardInflight: -1}, 256},
		{Config{DisableShedding: true}, 0},
		{Config{ShardInflight: -1, DisableShedding: true}, 0},
		{Config{ShardInflight: 5, DisableShedding: true}, 0},
	} {
		if got := tc.in.withDefaults().ShardInflight; got != tc.want {
			t.Errorf("ShardInflight %d (DisableShedding %v) defaults to %d, want %d",
				tc.in.ShardInflight, tc.in.DisableShedding, got, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty shard list")
	}
	if _, err := New(Config{Shards: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("accepted duplicate shards")
	}
	many := make([]string, maxShards+1)
	for i := range many {
		many[i] = fmt.Sprintf("http://s%d", i)
	}
	if _, err := New(Config{Shards: many}); err == nil {
		t.Fatal("accepted oversized shard list")
	}
	f := mustFront(t, Config{Shards: []string{"http://a", "http://b"}})
	if n := len(f.Upstreams()); n != 2 {
		t.Fatalf("tier over %d shards", n)
	}
}

func TestBatchThroughFront(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	f := mustFront(t, Config{Shards: urls})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	const n = 8
	batch := frontBatch(n)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(batch); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("%d results", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Index != i || item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	// Every item ran once, on its home shard: the head of its ring walk
	// over these URLs. The test servers' ports are random, so which shard
	// is home changes from run to run; the ring over the same URLs says.
	home := homeShards(t, urls, batch)
	for s, sh := range shards {
		want := map[string]int{}
		for i, h := range home {
			if h == s {
				want[strconv.Itoa(i)] = 1
			}
		}
		if got := sh.executions(); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d ran %v, want %v (home shards %v)", s, got, want, home)
		}
	}
}

// homeShards is each item's home shard on the front's ring over urls.
func homeShards(t *testing.T, urls []string, batch *BatchRequest) []int {
	t.Helper()
	ring, err := NewRing(urls, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	home := make([]int, len(batch.Requests))
	for i := range batch.Requests {
		home[i] = ring.successors(mix64(itemHash(&batch.Requests[i])), nil)[0]
	}
	return home
}

// TestRingSpreadsDistinctItems is the spread half of
// TestBatchThroughFront on fixed URLs, where it is deterministic: eight
// distinct items over two shards use both.
func TestRingSpreadsDistinctItems(t *testing.T) {
	home := homeShards(t, []string{"http://127.0.0.1:9101", "http://127.0.0.1:9102"}, frontBatch(8))
	used := map[int]bool{}
	for _, h := range home {
		used[h] = true
	}
	if len(used) != 2 {
		t.Fatalf("ring used %d of 2 shards for 8 distinct items (home shards %v)", len(used), home)
	}
}

// TestBadRequestStatusCodes posts the same bodies to /v1/batch on all
// three tiers: the status (and the error envelope) of a rejected
// request comes from the one shared classifier, so it cannot differ by
// tier. The tick-range row failed on clusterd and frontd (400) before
// the classifier was shared.
func TestBadRequestStatusCodes(t *testing.T) {
	schedd := httptest.NewServer(serve.New(serve.Config{MaxBodyBytes: 256}).Handler())
	t.Cleanup(schedd.Close)
	c, err := cluster.New(cluster.Config{Backends: []string{schedd.URL}, Tier: proxy.Config{MaxBodyBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	clusterd := httptest.NewServer(c.Handler())
	t.Cleanup(clusterd.Close)
	frontd := httptest.NewServer(mustFront(t, Config{Shards: []string{clusterd.URL}, Tier: proxy.Config{MaxBodyBytes: 256}}).Handler())
	t.Cleanup(frontd.Close)
	tiers := []struct{ name, url string }{
		{"schedd", schedd.URL}, {"clusterd", clusterd.URL}, {"frontd", frontd.URL},
	}
	// The strict decoder used to stop at the instance's brace: this item
	// was accepted by every tier and scheduled with perfect estimates.
	misspelt := `{"algorithm":"lpt-nochoice","instance":{"m":2,"alpha":1.5,"estimates":[1,2],"actual":[2,1]}}`
	cases := []struct {
		name, body string
		status     int
		errHas     string
	}{
		{"unknown key inside instance", `{"requests":[` + misspelt + `]}`, http.StatusBadRequest, `json: unknown field "actual"`},
		{"empty batch", `{"requests":[]}`, http.StatusBadRequest, "empty batch"},
		{"oversized body", `{"requests":[` + strings.Repeat(" ", 300) + `]}`,
			http.StatusRequestEntityTooLarge, "request body too large"},
		// 1e10 s is past the simulator's 2^63 ns tick range.
		{"out of tick range", `{"requests":[{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[1e10]}}]}`,
			http.StatusUnprocessableEntity, task.ErrTickRange.Error()},
	}
	for _, tc := range cases {
		var first string
		for _, tier := range tiers {
			resp, err := http.Post(tier.url+"/v1/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e wire.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s on %s: status %d, want %d", tc.name, tier.name, resp.StatusCode, tc.status)
			}
			if err != nil || !strings.Contains(e.Error, tc.errHas) {
				t.Errorf("%s on %s: envelope %q (decode: %v), want it to name %q", tc.name, tier.name, e.Error, err, tc.errHas)
			}
			if first == "" {
				first = e.Error
			} else if e.Error != first {
				t.Errorf("%s: %s says %q, schedd says %q", tc.name, tier.name, e.Error, first)
			}
		}
	}
	// A stream reports the same refusal in band, on the item's line.
	for _, tier := range tiers {
		resp, err := http.Post(tier.url+"/v1/stream", "application/x-ndjson", strings.NewReader(misspelt+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		var line Item
		err = json.NewDecoder(resp.Body).Decode(&line)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || line.Error != `json: unknown field "actual"` || line.Response != nil {
			t.Errorf("misspelt stream line on %s: status %d, line %+v (decode: %v)", tier.name, resp.StatusCode, line, err)
		}
	}
}

// TestProbeReadmission kills a shard, lets the prober mark it dead,
// restarts it, and requires the prober to readmit it — the satellite
// invariant "restart ⇒ the ring readmits the shard".
func TestProbeReadmission(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	f := mustFront(t, Config{Shards: urls, Tier: proxy.Config{Upstream: wire.UpstreamConfig{
		Threshold:     1,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
	}}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)

	shards[0].down.Store(true)
	waitState := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if f.Upstreams()[0].State(time.Now()) == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("shard 0 never reached state %d", want)
	}
	waitState(wire.StateOpen)
	shards[0].down.Store(false)
	waitState(wire.StateClosed)
}

// TestReroutedCountsItemsNotAttempts: front.rerouted is "items moved
// off their home shard", so an item whose home is dead and whose
// successor throttles it once before serving it has moved once, however
// many times it was sent there.
func TestReroutedCountsItemsNotAttempts(t *testing.T) {
	var home, successorCalls atomic.Int64
	var urls []string
	for i := int64(0); i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case i == home.Load():
				w.WriteHeader(http.StatusBadGateway)
			case successorCalls.Add(1) == 1:
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
			default:
				fmt.Fprint(w, `{"results":[{"index":0,"response":{"served":true}}]}`+"\n")
			}
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	f := mustFront(t, Config{Shards: urls, Tier: proxy.Config{RetryAfterCap: 5 * time.Millisecond,
		Upstream: wire.UpstreamConfig{Threshold: 1, BaseBackoff: time.Minute, MaxBackoff: time.Minute}}})
	req := frontBatch(1)
	ring, err := NewRing(urls, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	home.Store(int64(ring.successors(mix64(itemHash(&req.Requests[0])), nil)[0]))

	rerouted, retried := mRerouted.Load(), mRetry429.Load()
	resp, err := f.RunBatch(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if item := resp.Results[0]; item.Error != "" || string(item.Response) != `{"served":true}` {
		t.Fatalf("item not served by the successor: %+v", item)
	}
	if got := successorCalls.Load(); got != 2 {
		t.Fatalf("successor asked %d times, want a 429 and a 200", got)
	}
	if r, w := mRerouted.Load()-rerouted, mRetry429.Load()-retried; r != 1 || w != 1 {
		t.Fatalf("front.rerouted moved by %d over %d 429 waits, want 1 and 1", r, w)
	}
}

func TestRetryAfterValue(t *testing.T) {
	if got := retryAfterValue(3 * time.Second); got != "3" {
		t.Fatalf("retryAfterValue = %q", got)
	}
	if got := retryAfterValue(100 * time.Millisecond); got != "1" {
		t.Fatalf("sub-second hint rendered %q, want the 1s floor", got)
	}
}

// TestStreamOrderAndErrors drives /v1/stream with a mix of valid and
// invalid lines and requires one result line per input line, in input
// order, errors resolved in place.
func TestStreamOrderAndErrors(t *testing.T) {
	_, urls := newTestShards(t, 2)
	f := mustFront(t, Config{Shards: urls})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	lines := []string{
		`{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`,
		`{"algorithm":"","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`, // invalid: no algorithm
		`not json`,
		`{"algorithm":"lpt-norestriction","instance":{"m":2,"alpha":1.5,"estimates":[5,4]}}`,
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var items []Item
	for dec.More() {
		var it Item
		if err := dec.Decode(&it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	if len(items) != len(lines) {
		t.Fatalf("%d result lines for %d inputs", len(items), len(lines))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("line %d has index %d: order broken", i, it.Index)
		}
	}
	if items[0].Error != "" || items[0].Response == nil {
		t.Fatalf("valid line 0 failed: %+v", items[0])
	}
	if items[1].Error == "" || items[2].Error == "" {
		t.Fatalf("invalid lines passed: %+v / %+v", items[1], items[2])
	}
	if items[3].Error != "" || items[3].Response == nil {
		t.Fatalf("valid line 3 failed: %+v", items[3])
	}
}

// TestStreamItemCap cuts the stream off with an in-band error line
// past the tier's MaxStreamItems.
func TestStreamItemCap(t *testing.T) {
	_, urls := newTestShards(t, 1)
	f := mustFront(t, Config{Shards: urls, Tier: proxy.Config{MaxStreamItems: 2}})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	line := `{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader(strings.Repeat(line+"\n", 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var items []Item
	for dec.More() {
		var it Item
		if err := dec.Decode(&it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	if len(items) != 3 {
		t.Fatalf("%d lines, want 2 results + 1 cap error", len(items))
	}
	last := items[len(items)-1]
	if !strings.Contains(last.Error, "exceeds 2 items") {
		t.Fatalf("cap line: %+v", last)
	}
}
