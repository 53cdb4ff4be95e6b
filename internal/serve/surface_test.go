package serve

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricSurfaceIsPinned holds the serve.* metric names, sorted, to
// the list below, as front's and cluster's TestTierSurfaceIsPinned hold
// theirs. obs merges a second registration of a name under the same
// kind into the first, so one metric's name pasted over another's (the
// simulate_open timer registered as "serve.simulate") loses a name
// here, and a renamed one moves it.
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
		"serve.schedule", "serve.simulate", "serve.simulate_open",
		"serve.stream", "serve.stream_items",
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
