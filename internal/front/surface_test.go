package front

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestTierSurfaceIsPinned records what a client of frontd sees and what
// cmd/bench reads of it: the /healthz body, the status and error
// envelope of each refusal, the in-band shed line of a stream, and the
// front.* metric names. A change to how the tier is built inside must
// leave every byte of it where it is.
func TestTierSurfaceIsPinned(t *testing.T) {
	schedd := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(schedd.Close)
	c, err := cluster.New(cluster.Config{Backends: []string{schedd.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	inner := c.Handler()
	// The shard holds every item for a while, so a stream's first item
	// is still in flight when the second arrives at a one-item cap.
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			time.Sleep(100 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	f, err := New(Config{Shards: []string{shard.URL}, AdmitMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	item := `{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`
	healthz := `{"status":"ok","admitted":0,"admit_max":1,"shards":[{"id":0,"url":"` + shard.URL +
		`","state":"live","inflight":0,"consecutive_failures":0}]}` + "\n"
	for _, tc := range []struct {
		name, path, body string
		status           int
		retryAfter, want string // want "": only the status is pinned
	}{
		{"healthz", "/healthz", "", http.StatusOK, "", healthz},
		{"unknown field", "/v1/batch", `{"requests":[` + item + `],"placement":{"strategy":"all"}}`,
			http.StatusBadRequest, "", `{"error":"json: unknown field \"placement\""}` + "\n"},
		{"oversize body", "/v1/batch", `{"requests":[` + strings.Repeat(" ", 8<<20) + `]}`,
			http.StatusRequestEntityTooLarge, "", `{"error":"http: request body too large"}` + "\n"},
		{"whole-batch shed", "/v1/batch", `{"requests":[` + item + `,` + item + `]}`,
			http.StatusTooManyRequests, "1", `{"error":"front saturated: admission cap reached"}` + "\n"},
		{"batch", "/v1/batch", `{"requests":[` + item + `]}`, http.StatusOK, "", ""},
		// frontd takes no placement override: a ?strategy= is not read.
		{"stream", "/v1/stream?strategy=bogus", item + "\n" + item + "\n", http.StatusOK, "", ""},
		{"healthz after traffic", "/healthz", "", http.StatusOK, "", healthz},
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
		if resp.StatusCode != tc.status || resp.Header.Get("Retry-After") != tc.retryAfter {
			t.Errorf("%s: status %d Retry-After %q, want %d %q", tc.name, resp.StatusCode,
				resp.Header.Get("Retry-After"), tc.status, tc.retryAfter)
		}
		if tc.want != "" && string(got) != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if tc.name == "stream" {
			lines := strings.SplitAfter(string(got), "\n")
			if len(lines) != 3 || !strings.HasPrefix(lines[0], `{"index":0,"response":`) ||
				lines[1] != `{"index":1,"error":"shed: admission cap reached; retry after 1s"}`+"\n" {
				t.Errorf("stream: %q, want an answer and then the in-band shed line", got)
			}
		}
	}

	names := tierNames("front.", "front.shard.", 1)
	want := []string{
		"front.batch", "front.dispatches_total", "front.inflight", "front.items_total",
		"front.rerouted", "front.retries_429", "front.shard.0.dead", "front.shard.0.inflight",
		"front.shard_deaths", "front.shard_dials", "front.shard_inflight", "front.shed",
		"front.stream", "front.stream_items",
	}
	if !slices.Equal(names, want) {
		t.Errorf("front.* metrics:\n got %q\nwant %q", names, want)
	}
	// What cmd/bench reads of this tier (serve_workloads.go).
	if !slices.Contains(names, "front.shed") {
		t.Error("front.shed, which cmd/bench reads, is gone")
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
