package serve

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRouteSurfaceIsPinned holds schedd's routes to the five a tier,
// cmd/bench or a CLI calls, each answering 200, and keeps the routes
// deleted for having no such caller answering 404.
func TestRouteSurfaceIsPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/healthz", "", http.StatusOK},
		{"GET", "/metrics", "", http.StatusOK},
		{"POST", "/v1/schedule", validSchedule, http.StatusOK},
		{"POST", "/v1/batch", `{"requests":[` + validSchedule + `]}`, http.StatusOK},
		{"POST", "/v1/stream", validSchedule + "\n", http.StatusOK},
		{"POST", "/v1/simulate", validSchedule, http.StatusNotFound},
		{"POST", "/v1/simulate-open", validSchedule, http.StatusNotFound},
		{"GET", "/v1/algorithms", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}
}

// TestMetricSurfaceIsPinned holds the serve.* metric names, sorted, to
// the list below, as front's and cluster's TestTierSurfaceIsPinned hold
// theirs. obs merges a second registration of a name under the same
// kind into the first, so one metric's name pasted over another's (the
// stream timer registered as "serve.batch") loses a name here, and a
// renamed one moves it.
func TestMetricSurfaceIsPinned(t *testing.T) {
	var names []string
	for _, s := range obs.Snapshot() {
		if strings.HasPrefix(s.Name, "serve.") {
			names = append(names, s.Name)
		}
	}
	want := []string{
		"serve.batch", "serve.batch_items", "serve.inflight",
		"serve.panics_recovered", "serve.rejected_429", "serve.requests_total",
		"serve.responses_2xx", "serve.responses_4xx", "serve.responses_5xx",
		"serve.schedule", "serve.stream", "serve.stream_items",
	}
	if !slices.Equal(names, want) {
		t.Errorf("serve.* metrics:\n got %q\nwant %q", names, want)
	}
	// What cmd/bench reads of this tier (serve_workloads.go).
	for _, name := range []string{"serve.rejected_429", "serve.requests_total", "serve.schedule"} {
		if !slices.Contains(names, name) {
			t.Errorf("%s, which cmd/bench reads, is gone", name)
		}
	}
}
