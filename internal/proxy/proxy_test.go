package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/wire"
)

var (
	tItems       = obs.GetCounter("proxytest.items_total")
	tDispatches  = obs.GetCounter("proxytest.dispatches_total")
	tRetries     = obs.GetCounter("proxytest.retries_429")
	tShed        = obs.GetCounter("proxytest.shed")
	tOpens       = obs.GetCounter("proxytest.opens")
	tDials       = obs.GetCounter("proxytest.dials")
	tStreamItems = obs.GetCounter("proxytest.stream_items")
	tLevel       = obs.GetGauge("proxytest.admitted")
	tBatch       = obs.GetTimer("proxytest.batch")
	tStream      = obs.GetTimer("proxytest.stream")
)

// testPolicy is the simplest policy there is: every item may run on
// every upstream, the first selectable one takes it, and the only
// placement override accepted is the strategy "ok". sole posts each
// item to schedd's /v1/batch as a one-item batch (frontd's shape)
// instead of to /v1/schedule (clusterd's).
func testPolicy(nUpstreams int, sole bool) Policy {
	all := make([]int, nUpstreams)
	for i := range all {
		all[i] = i
	}
	p := Policy{
		Place: func(spec *PlacementSpec, n int) (Placer, error) {
			if spec != nil && spec.Strategy != "ok" {
				return nil, errors.New("placement: not ok")
			}
			return func(int, *serve.ScheduleRequest) []int { return all }, nil
		},
		Pick: func(ups []*wire.Upstream, set []int, now time.Time) (*wire.Upstream, string) {
			for _, i := range set {
				if ups[i].Selectable(now) {
					return ups[i], ""
				}
			}
			return nil, ""
		},
		Route: wire.Route{
			Path: "/v1/schedule", ItemHeader: "X-Test-Item",
			NoneLive: func([]int) string { return "test: nothing live" },
			Items:    tItems, Dispatches: tDispatches, Retries429: tRetries, Shed: tShed,
		},
		Name: "test",
		Upstreams: wire.UpstreamNames{
			GaugePrefix: "proxytest.upstream", StateGauge: "state",
			States: [3]string{"up", "down", "trial"}, Opens: tOpens, Dials: tDials,
		},
		StreamItems: tStreamItems, Batch: tBatch, Stream: tStream,
	}
	if sole {
		p.Route.Path, p.Route.Sole = "/v1/batch", true
	}
	return p
}

// newTestTier boots n schedd upstreams and a tier over them, and
// returns the tier with its served base URL.
func newTestTier(t *testing.T, n int, cfg Config, p Policy) (*Tier, string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	tier := New(cfg, urls, nil, p)
	t.Cleanup(tier.Close)
	ts := httptest.NewServer(tier.Handler())
	t.Cleanup(ts.Close)
	return tier, ts.URL
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func lines(t *testing.T, body []byte) []wire.Result {
	t.Helper()
	var out []wire.Result
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r wire.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

const item = `{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`

func TestConfigDefaults(t *testing.T) {
	for _, in := range []Config{{}, {Workers: -1, MaxBatch: -1, MaxBodyBytes: -1, Upstream: wire.UpstreamConfig{Threshold: -1}}} {
		c := in.withDefaults()
		if c.Workers <= 0 || c.MaxBatch != 256 || c.MaxStreamItems != 10000 || c.StreamTimeout != 5*time.Minute ||
			c.MaxTasks != 100000 || c.MaxMachines != 10000 || c.MaxBodyBytes != 8<<20 ||
			c.RequestTimeout != 60*time.Second || c.RetryAfterCap != 2*time.Second {
			t.Errorf("defaults of %+v: %+v", in, c)
		}
		if u := c.Upstream; u.Threshold != 3 || u.BaseBackoff != 100*time.Millisecond ||
			u.MaxBackoff != 5*time.Second || u.ProbeInterval != 500*time.Millisecond {
			t.Errorf("breaker defaults of %+v: %+v", in, u)
		}
	}
	if c := (Config{MaxBatch: 3}).withDefaults(); c.MaxBatch != 3 {
		t.Errorf("a set MaxBatch was replaced: %d", c.MaxBatch)
	}
}

// TestFlagsDefaultToTheDefaults: a daemon started with no flags runs at
// the library defaults (Workers aside, whose default is 0 → computed).
func TestFlagsDefaultToTheDefaults(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	c.Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := Config{}.withDefaults()
	want.Workers, want.Upstream = 0, wire.UpstreamConfig{}
	if c != want {
		t.Fatalf("flag defaults %+v, library defaults %+v", c, want)
	}
	if err := fs.Parse([]string{"-max-batch", "7", "-timeout", "3s"}); err != nil || c.MaxBatch != 7 || c.RequestTimeout != 3*time.Second {
		t.Fatalf("flags did not set the config: %+v (%v)", c, err)
	}
}

// TestDecodeRejections: the one strict decode refuses every malformed
// or over-limit batch, and a placement override by whether the tier
// takes one.
func TestDecodeRejections(t *testing.T) {
	cfg := Config{MaxBatch: 2, MaxTasks: 8, MaxMachines: 8}
	plain := New(cfg, []string{"http://a"}, nil, testPolicy(1, false))
	p := testPolicy(1, false)
	p.Overrides = true
	takes := New(cfg, []string{"http://a"}, nil, p)
	for _, tc := range []struct{ name, body string }{
		{"invalid json", `{`},
		{"empty object", `{}`},
		{"empty batch", `{"requests":[]}`},
		{"unknown field", `{"requests":[` + item + `],"extra":1}`},
		{"trailing garbage", `{"requests":[` + item + `]} {}`},
		{"missing algorithm", `{"requests":[{"instance":{"m":1,"alpha":1,"estimates":[1]}}]}`},
		{"missing instance", `{"requests":[{"algorithm":"oracle-lpt"}]}`},
		{"bad alpha", `{"requests":[{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":0.5,"estimates":[1]}}]}`},
		{"too many tasks", `{"requests":[{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,1,1,1,1,1,1,1,1]}}]}`},
		{"too many machines", `{"requests":[{"algorithm":"x","instance":{"m":9,"alpha":1,"estimates":[1]}}]}`},
		{"over MaxBatch", `{"requests":[` + item + `,` + item + `,` + item + `]}`},
	} {
		for _, tier := range []*Tier{plain, takes} {
			if _, err := tier.Decode([]byte(tc.body)); err == nil {
				t.Errorf("%s (overrides %v): accepted", tc.name, tier.p.Overrides)
			}
		}
	}
	override := `{"requests":[` + item + `],"placement":{"strategy":"ok"}}`
	if _, err := plain.Decode([]byte(override)); err == nil || err.Error() != `json: unknown field "placement"` {
		t.Errorf("a tier without overrides took a placement: %v", err)
	}
	if req, err := takes.Decode([]byte(override)); err != nil || req.Placement == nil || req.Placement.Strategy != "ok" {
		t.Errorf("a tier with overrides refused or lost one: %+v, %v", req, err)
	}
	if _, err := takes.Decode([]byte(`{"requests":[` + item + `],"placement":{"strategy":"no"}}`)); err == nil || err.Error() != "placement: not ok" {
		t.Errorf("a placement Place refuses was accepted: %v", err)
	}
	// A strict-decode error names the request type, with or without overrides.
	for _, tier := range []*Tier{plain, takes} {
		if _, err := tier.Decode([]byte(`{"requests":5}`)); err == nil || !strings.Contains(err.Error(), "BatchRequest.requests") {
			t.Errorf("type error (overrides %v): %v", tier.p.Overrides, err)
		}
	}
	for _, tier := range []*Tier{plain, takes} {
		if _, err := tier.Decode([]byte(`{"requests":[` + item + `]}`)); err != nil {
			t.Errorf("rejected a valid batch (overrides %v): %v", tier.p.Overrides, err)
		}
	}
}

// TestBatchAndStreamBothShapes serves a batch and a stream through a
// tier that posts items as they are and one that wraps each in a
// one-item batch: the same answers, in order, either way.
func TestBatchAndStreamBothShapes(t *testing.T) {
	var want [2][]byte
	for i, sole := range []bool{false, true} {
		_, url := newTestTier(t, 2, Config{}, testPolicy(2, sole))
		resp, batch := post(t, url+"/v1/batch", `{"requests":[`+item+`,{"algorithm":"no-such-algo","instance":{"m":2,"alpha":1,"estimates":[1]}}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sole %v: batch status %d: %s", sole, resp.StatusCode, batch)
		}
		resp, stream := post(t, url+"/v1/stream", item+"\nnot json\n"+item+"\n")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("sole %v: stream status %d, %q", sole, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		got := lines(t, stream)
		if len(got) != 3 || got[0].Response == nil || got[1].Error == "" || !bytes.Equal(got[0].Response, got[2].Response) {
			t.Fatalf("sole %v: stream %s", sole, stream)
		}
		for j, r := range got {
			if r.Index != j {
				t.Fatalf("sole %v: line %d has index %d", sole, j, r.Index)
			}
		}
		want[i] = batch
	}
	if !bytes.Equal(want[0], want[1]) {
		t.Fatalf("the two shapes answer differently:\n%s\n%s", want[0], want[1])
	}
}

// TestAdmissionShedsBeforeQueue: past the level a batch is refused
// whole with 429 and the hint, a stream line in band; both count as
// shed, and the level drains.
func TestAdmissionShedsBeforeQueue(t *testing.T) {
	p := testPolicy(1, false)
	p.Admit, p.AdmitMax, p.RetryAfter = wire.NewLevel(1, tLevel), 1, "3"
	// The upstream holds every item long enough for a stream's second
	// line to meet the first in flight.
	var urls []string
	inner := serve.New(serve.Config{}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/schedule" {
			time.Sleep(100 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	urls = append(urls, slow.URL)
	tier := New(Config{}, urls, nil, p)
	t.Cleanup(tier.Close)
	ts := httptest.NewServer(tier.Handler())
	t.Cleanup(ts.Close)

	shed := tShed.Load()
	resp, body := post(t, ts.URL+"/v1/batch", `{"requests":[`+item+`,`+item+`]}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3" ||
		string(body) != `{"error":"test saturated: admission cap reached"}`+"\n" {
		t.Fatalf("oversized batch: %d %q %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	_, body = post(t, ts.URL+"/v1/stream", item+"\n"+item+"\n")
	got := lines(t, body)
	if len(got) != 2 || got[0].Response == nil || got[1].Error != "shed: admission cap reached; retry after 3s" {
		t.Fatalf("stream past the cap: %s", body)
	}
	if d := tShed.Load() - shed; d != 3 {
		t.Fatalf("shed moved by %d, want 2 + 1", d)
	}
	if resp, body := post(t, ts.URL+"/v1/batch", `{"requests":[`+item+`]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("a batch within the cap: %d %s", resp.StatusCode, body)
	}
	if l := p.Admit.Load(); l != 0 {
		t.Fatalf("admission level %d after the traffic", l)
	}
}

// TestStreamItemCap cuts a stream off with an in-band error line past
// MaxStreamItems.
func TestStreamItemCap(t *testing.T) {
	_, url := newTestTier(t, 1, Config{MaxStreamItems: 2}, testPolicy(1, false))
	_, body := post(t, url+"/v1/stream", strings.Repeat(item+"\n", 4))
	got := lines(t, body)
	if len(got) != 3 || got[0].Response == nil || got[1].Response == nil ||
		got[2].Index != 2 || got[2].Error != "stream exceeds 2 items" {
		t.Fatalf("capped stream: %s", body)
	}
}

// TestStreamPlacementOverride: ?strategy= is the stream's placement on
// a tier that takes overrides (refused with 400 when Place refuses it),
// and not read on one that does not.
func TestStreamPlacementOverride(t *testing.T) {
	p := testPolicy(1, false)
	p.Overrides = true
	_, takes := newTestTier(t, 1, Config{}, p)
	_, plain := newTestTier(t, 1, Config{}, testPolicy(1, false))
	if resp, body := post(t, takes+"/v1/stream?strategy=no", item+"\n"); resp.StatusCode != http.StatusBadRequest ||
		string(body) != `{"error":"placement: not ok"}`+"\n" {
		t.Fatalf("refused stream placement: %d %s", resp.StatusCode, body)
	}
	for _, url := range []string{takes + "/v1/stream?strategy=ok", plain + "/v1/stream?strategy=no"} {
		if resp, body := post(t, url, item+"\n"); resp.StatusCode != http.StatusOK || lines(t, body)[0].Response == nil {
			t.Fatalf("%s: %d %s", url, resp.StatusCode, body)
		}
	}
}

// TestHealthzDegradedWhenAllUpstreamsOpen reads /healthz in both tiers'
// words, and as "degraded" once every upstream's breaker is open.
func TestHealthzDegradedWhenAllUpstreamsOpen(t *testing.T) {
	get := func(url string) HealthResponse {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	shards := testPolicy(2, true)
	shards.Shards, shards.AdmitMax = true, 7
	for _, p := range []Policy{testPolicy(2, false), shards} {
		tier, url := newTestTier(t, 2, Config{Upstream: wire.UpstreamConfig{Threshold: 1, BaseBackoff: time.Minute}}, p)
		h := get(url)
		rows := h.Backends
		if p.Shards {
			rows = h.Shards
		}
		if h.Status != "ok" || len(rows) != 2 || len(h.Shards)+len(h.Backends) != 2 ||
			(h.Admission != nil) != p.Shards || p.Shards && h.AdmitMax != 7 {
			t.Fatalf("healthy tier (shards %v): %+v", p.Shards, h)
		}
		if st := rows[1]; st.ID != 1 || st.State+st.Breaker != "up" || (st.State != "") != p.Shards {
			t.Fatalf("row (shards %v): %+v", p.Shards, st)
		}
		tier.Upstreams()[0].RecordFailure(time.Now())
		if h := get(url); h.Status != "ok" {
			t.Fatalf("one upstream left and the tier reads %q", h.Status)
		}
		tier.Upstreams()[1].RecordFailure(time.Now())
		if h := get(url); h.Status != "degraded" {
			t.Fatalf("every breaker open and the tier reads %q", h.Status)
		}
	}
}

// TestRunBatchRefusals: the library entry point reports Place's refusal
// as its error, and an item that cannot be encoded as its own.
func TestRunBatchRefusals(t *testing.T) {
	tier, _ := newTestTier(t, 1, Config{}, testPolicy(1, false))
	if _, err := tier.RunBatch(t.Context(), &BatchRequest{Placement: &PlacementSpec{Strategy: "no"}}); err == nil {
		t.Fatal("a refused placement ran")
	}
	nan := serve.ScheduleRequest{Algorithm: "oracle-lpt", Instance: &task.Instance{M: 1, Alpha: math.NaN()}}
	resp, err := tier.RunBatch(context.Background(), &BatchRequest{Requests: []serve.ScheduleRequest{nan}})
	if err != nil || len(resp.Results) != 1 || !strings.Contains(resp.Results[0].Error, "NaN") {
		t.Fatalf("unencodable item: %+v, %v", resp, err)
	}
}
