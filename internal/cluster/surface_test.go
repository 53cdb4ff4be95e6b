package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestTierSurfaceIsPinned records what a client of clusterd sees and
// what cmd/bench reads of it: the /healthz body, the status and error
// envelope of each refusal, and the cluster.* metric names. A change to
// how the tier is built inside must leave every byte of it where it is.
func TestTierSurfaceIsPinned(t *testing.T) {
	var urls []string
	for i := 0; i < 4; i++ {
		b := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(b.Close)
		urls = append(urls, b.URL)
	}
	c, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	item := `{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`
	healthz := `{"status":"ok","backends":[`
	for i, u := range urls {
		if i > 0 {
			healthz += ","
		}
		healthz += `{"id":` + strconv.Itoa(i) + `,"url":"` + u + `","breaker":"closed","inflight":0,"consecutive_failures":0}`
	}
	healthz += "]}\n"
	for _, tc := range []struct {
		name, path, body string
		status           int
		want             string // "": only the status is pinned
	}{
		{"healthz", "/healthz", "", http.StatusOK, healthz},
		{"unknown field", "/v1/batch", `{"requests":[` + item + `],"bogus":1}`,
			http.StatusBadRequest, `{"error":"json: unknown field \"bogus\""}` + "\n"},
		{"oversize body", "/v1/batch", `{"requests":[` + strings.Repeat(" ", 8<<20) + `]}`,
			http.StatusRequestEntityTooLarge, `{"error":"http: request body too large"}` + "\n"},
		{"bad placement strategy", "/v1/batch", `{"requests":[` + item + `],"placement":{"strategy":"group:3"}}`,
			http.StatusBadRequest, `{"error":"placement: k=3 does not divide m=4"}` + "\n"},
		{"placement with both", "/v1/batch", `{"requests":[` + item + `],"placement":{"strategy":"all","replicas":[[0]]}}`,
			http.StatusBadRequest, `{"error":"placement: strategy and replicas are mutually exclusive"}` + "\n"},
		{"empty placement", "/v1/batch", `{"requests":[` + item + `],"placement":{}}`,
			http.StatusBadRequest, `{"error":"placement: empty spec (set strategy or replicas)"}` + "\n"},
		{"replica count", "/v1/batch", `{"requests":[` + item + `],"placement":{"replicas":[[0],[1]]}}`,
			http.StatusBadRequest, `{"error":"placement: 2 replica sets for 1 items"}` + "\n"},
		{"bad stream strategy", "/v1/stream?strategy=bogus", item + "\n",
			http.StatusBadRequest, `{"error":"cluster: unknown strategy \"bogus\" (want none, all, or group:k)"}` + "\n"},
		{"batch", "/v1/batch", `{"requests":[` + item + `],"placement":{"replicas":[[1,3]]}}`, http.StatusOK, ""},
		{"stream", "/v1/stream?strategy=group:2", item + "\n", http.StatusOK, ""},
		{"healthz after traffic", "/healthz", "", http.StatusOK, healthz},
	} {
		var resp *http.Response
		if tc.body == "" {
			resp, err = http.Get(ts.URL + tc.path)
		} else {
			resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, got)
		}
		if tc.want != "" && string(got) != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}

	names := tierNames("cluster.", "cluster.backend.", len(urls))
	want := []string{
		"cluster.backend.0.breaker", "cluster.backend.0.inflight",
		"cluster.backend.1.breaker", "cluster.backend.1.inflight",
		"cluster.backend.2.breaker", "cluster.backend.2.inflight",
		"cluster.backend.3.breaker", "cluster.backend.3.inflight",
		"cluster.backend_dials", "cluster.batch", "cluster.breaker_opens",
		"cluster.dispatches_total", "cluster.hedge_wins", "cluster.hedges_fired",
		"cluster.items_total", "cluster.redispatches", "cluster.retries_429",
		"cluster.stream", "cluster.stream_items",
	}
	if !slices.Equal(names, want) {
		t.Errorf("cluster.* metrics:\n got %q\nwant %q", names, want)
	}
	// What cmd/bench reads of this tier (serve_workloads.go).
	for _, name := range []string{
		"cluster.dispatches_total", "cluster.items_total", "cluster.hedge_wins",
		"cluster.hedges_fired", "cluster.redispatches", "cluster.retries_429",
	} {
		if !slices.Contains(names, name) {
			t.Errorf("%s, which cmd/bench reads, is gone", name)
		}
	}
}

// tierNames returns the sorted registered metric names under prefix.
// Per-upstream names (upstream.<id>.*) are kept for the first n ids
// only: other tests of the package, in whatever order they run, add
// their own.
func tierNames(prefix, upstream string, n int) []string {
	perID := regexp.MustCompile(`^` + regexp.QuoteMeta(upstream) + `(\d+)\.`)
	var out []string
	for _, s := range obs.Snapshot() {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if m := perID.FindStringSubmatch(s.Name); m != nil {
			if id, _ := strconv.Atoi(m[1]); id >= n {
				continue
			}
		}
		out = append(out, s.Name)
	}
	return out
}
