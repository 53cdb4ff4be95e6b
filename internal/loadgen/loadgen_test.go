package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// okBatchHandler answers every /v1/batch with one successful item.
func okBatchHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"results":[{"index":0,"response":{}}]}`+"\n")
	})
}

func TestConfigValidation(t *testing.T) {
	ctx := t.Context()
	if _, err := Run(ctx, Config{Requests: 1}); err == nil {
		t.Error("missing URL accepted")
	}
	if _, err := Run(ctx, Config{URL: "http://x"}); err == nil {
		t.Error("missing Requests accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 8 || c.Seed != 1 || c.Timeout != 30*time.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.Algorithm != "lpt-norestriction" || c.Machines != 4 || c.Tasks != 6 {
		t.Fatalf("unexpected workload defaults: %+v", c)
	}
}

// TestClosedLoopReport drives the closed loop against a loopback target
// and checks the report arithmetic: the counts partition, throughput
// counts OK requests only, and the latency summary is ordered.
func TestClosedLoopReport(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		okBatchHandler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	const n = 20
	rep, err := Run(t.Context(), Config{URL: ts.URL, Requests: n, Workers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 7 {
		t.Fatalf("report misattributed: %+v", rep)
	}
	if served.Load() != n {
		t.Fatalf("target served %d requests, want %d", served.Load(), n)
	}
	if rep.Requests != n || rep.OK != n || rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("counts do not partition: %+v", rep)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput %v for %d OK requests", rep.ThroughputRPS, rep.OK)
	}
	l := rep.LatencySeconds
	if l.P50 < 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		t.Fatalf("latency summary not ordered: %+v", l)
	}
	if rep.ShedRate != 0 || rep.FirstError != "" {
		t.Fatalf("clean run reported shedding or errors: %+v", rep)
	}
}

// TestOutcomeClassification scripts the target's responses and checks
// each lands in the right report bucket: item success ⇒ OK; HTTP 429 or
// an item-level "shed:" error ⇒ Shed; anything else ⇒ Errors.
func TestOutcomeClassification(t *testing.T) {
	responses := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) { // OK
			_, _ = io.WriteString(w, `{"results":[{"index":0,"response":{}}]}`)
		},
		func(w http.ResponseWriter) { // shed: HTTP layer
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = io.WriteString(w, `{"error":"saturated"}`)
		},
		func(w http.ResponseWriter) { // shed: item layer
			_, _ = io.WriteString(w, `{"results":[{"index":0,"error":"shed: shard 0 at in-flight cap"}]}`)
		},
		func(w http.ResponseWriter) { // error: item failed
			_, _ = io.WriteString(w, `{"results":[{"index":0,"error":"unknown algorithm"}]}`)
		},
		func(w http.ResponseWriter) { // error: server blew up
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, "boom")
		},
		func(w http.ResponseWriter) { // error: unparseable 200
			_, _ = io.WriteString(w, "not json")
		},
	}
	var i atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		responses[int(i.Add(1))-1](w)
	}))
	t.Cleanup(ts.Close)

	// Workers: 1 keeps the scripted order aligned with issue order.
	rep, err := Run(t.Context(), Config{URL: ts.URL, Requests: len(responses), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(responses) {
		t.Fatalf("report covers %d requests, want %d", rep.Requests, len(responses))
	}
	if rep.OK != 1 || rep.Shed != 2 || rep.Errors != 3 {
		t.Fatalf("classification off: OK=%d Shed=%d Errors=%d", rep.OK, rep.Shed, rep.Errors)
	}
	if rep.OK+rep.Shed+rep.Errors != rep.Requests {
		t.Fatalf("counts do not partition: %+v", rep)
	}
	if rep.FirstError == "" {
		t.Fatal("errors occurred but FirstError is empty")
	}
	if want := 2.0 / 6.0; rep.ShedRate != want {
		t.Fatalf("shed rate %v, want %v", rep.ShedRate, want)
	}
}

// capturingHandler records request bodies in arrival order.
type capturingHandler struct {
	mu     sync.Mutex
	bodies []string
}

func (h *capturingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, _ := io.ReadAll(r.Body)
	h.mu.Lock()
	h.bodies = append(h.bodies, string(data))
	h.mu.Unlock()
	okBatchHandler().ServeHTTP(w, r)
}

// TestDeterministicRequestStream: same seed ⇒ byte-identical request
// sequence; different seed ⇒ a different one; and request i is a
// function of (seed, i) alone, so four workers racing for indices issue
// the same set of bodies one worker does.
func TestDeterministicRequestStream(t *testing.T) {
	capture := func(seed uint64, workers int) []string {
		h := &capturingHandler{}
		ts := httptest.NewServer(h)
		defer ts.Close()
		_, err := Run(t.Context(), Config{URL: ts.URL, Requests: 6, Workers: workers, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(h.bodies) != 6 {
			t.Fatalf("captured %d bodies, want 6", len(h.bodies))
		}
		return h.bodies
	}
	// Workers: 1 so arrival order equals issue order.
	a, b := capture(42, 1), capture(42, 1)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%q\n%q", a, b)
	}
	if c := capture(43, 1); slices.Equal(a, c) {
		t.Fatal("different seeds issued identical request streams")
	}
	par := capture(42, 4)
	slices.Sort(a)
	slices.Sort(par)
	if !slices.Equal(a, par) {
		t.Fatalf("Workers: 4 issued a different request set than Workers: 1:\n%q\n%q", par, a)
	}
}

// TestRunCancellation: cancelling the context stops the closed loop
// early without error.
func TestRunCancellation(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		time.Sleep(5 * time.Millisecond)
		okBatchHandler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, Config{URL: ts.URL, Requests: 10000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests >= 10000 {
		t.Fatalf("cancellation did not stop the loop: %d requests", rep.Requests)
	}
}
