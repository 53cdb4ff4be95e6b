package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStressConcurrentTraffic is the service's long-running exercise
// regime in miniature: a real loopback listener, 32 goroutines firing
// mixed valid/invalid/oversized payloads at /v1/schedule and
// /v1/batch, then a graceful shutdown. It asserts
//
//   - no dropped responses: every request gets an HTTP status;
//   - only expected statuses appear (200/400/405/413/422/429);
//   - obs counters are monotone and account for every request;
//   - Shutdown drains cleanly under load.
//
// Run it under -race (make stress / CI) to sweep the handler stack,
// the semaphore, the batch fan-out, and the metrics for data races.
func TestStressConcurrentTraffic(t *testing.T) {
	const (
		goroutines  = 32
		perWorker   = 12
		maxBody     = 64 << 10
		maxInflight = 4
	)
	s := New(Config{
		MaxInflight:  maxInflight,
		Workers:      2,
		MaxBodyBytes: maxBody,
		MaxTasks:     2000,
	})
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Counter snapshot before the storm; deltas are asserted after.
	before := map[string]int64{}
	for _, st := range obs.Snapshot() {
		if !st.IsTimer && !st.IsGauge {
			before[st.Name] = st.Value
		}
	}

	oversized := `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[` +
		strings.Repeat("1,", maxBody/2) + `1]}}`
	batchBody := `{"requests":[` + strings.Join([]string{
		validSchedule, validSchedule, validSchedule,
	}, ",") + `]}`
	type shot struct {
		method, path, body string
	}
	payloads := []shot{
		{"POST", "/v1/schedule", validSchedule},
		{"POST", "/v1/schedule", `{"algorithm":"lpt-nochoice","instance":{"m":2,"alpha":2,"estimates":[5,1,4,2,3,6,2,2]}}`},
		{"POST", "/v1/batch", batchBody},
		{"POST", "/v1/schedule", `{broken json`},
		{"POST", "/v1/schedule", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[-5]}}`},
		{"POST", "/v1/schedule", `{"algorithm":"who-knows","instance":{"m":1,"alpha":1,"estimates":[1]}}`},
		{"GET", "/v1/schedule", ""},
		{"POST", "/v1/schedule", oversized},
		{"POST", "/v1/stream", validSchedule + "\n" + `{"algorithm":"ls-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[2,4,6,8,1,3,5]}}`},
		{"GET", "/healthz", ""},
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var sent, got atomic.Int64
	statuses := make([]map[int]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		statuses[g] = map[int]int{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				p := payloads[(g+k)%len(payloads)]
				sent.Add(1)
				req, err := http.NewRequest(p.method, base+p.path, strings.NewReader(p.body))
				if err != nil {
					t.Errorf("build request: %v", err)
					continue
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("worker %d: dropped response: %v", g, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				got.Add(1)
				statuses[g][resp.StatusCode]++
			}
		}(g)
	}
	wg.Wait()

	if sent.Load() != got.Load() {
		t.Fatalf("dropped responses: sent %d, answered %d", sent.Load(), got.Load())
	}
	total := map[int]int{}
	for _, m := range statuses {
		for code, n := range m {
			total[code] += n
		}
	}
	for code := range total {
		switch code {
		case 200, 400, 405, 413, 422, 429:
		default:
			t.Fatalf("unexpected status %d (distribution %v)", code, total)
		}
	}
	if total[200] == 0 {
		t.Fatalf("no successful requests at all: %v", total)
	}
	if total[400] == 0 {
		t.Fatalf("invalid payloads never rejected: %v", total)
	}

	// Counter accounting: every HTTP request hit the middleware once,
	// and the response-class counters partition them. Monotonicity is
	// implied by delta ≥ 0 on every counter.
	after := map[string]int64{}
	for _, st := range obs.Snapshot() {
		if !st.IsTimer && !st.IsGauge {
			after[st.Name] = st.Value
		}
	}
	for name, b := range before {
		if after[name] < b {
			t.Fatalf("counter %s went backwards: %d -> %d", name, b, after[name])
		}
	}
	delta := func(name string) int64 { return after[name] - before[name] }
	if d := delta("serve.requests_total"); d != sent.Load() {
		t.Fatalf("serve.requests_total delta %d, want %d", d, sent.Load())
	}
	classed := delta("serve.responses_2xx") + delta("serve.responses_4xx") + delta("serve.responses_5xx")
	if classed != sent.Load() {
		t.Fatalf("response classes account for %d of %d requests", classed, sent.Load())
	}
	if d := delta("serve.responses_5xx"); d != 0 {
		t.Fatalf("%d internal errors during stress", d)
	}
	if int(delta("serve.rejected_429")) != total[429] {
		t.Fatalf("429 counter %d vs observed %d", delta("serve.rejected_429"), total[429])
	}
	if mInflight.Load() != 0 {
		t.Fatalf("inflight gauge stuck at %d after drain", mInflight.Load())
	}

	// Graceful shutdown with nothing in flight must be immediate and
	// clean.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestStressShutdownUnderLoad issues shutdown while requests are
// still arriving: in-flight requests complete, late ones fail at the
// connection level, and nothing hangs.
func TestStressShutdownUnderLoad(t *testing.T) {
	s := New(Config{MaxInflight: 8, Workers: 2})
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 10 * time.Second}
	stop := make(chan struct{})
	var inFlightOK, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(base+"/v1/schedule", "application/json",
					strings.NewReader(validSchedule))
				if err != nil {
					// Connection refused after shutdown: acceptable, count it.
					refused.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == 200 || resp.StatusCode == 429 {
					inFlightOK.Add(1)
				}
			}
		}()
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	if inFlightOK.Load() == 0 {
		t.Fatal("no request completed before shutdown")
	}
	t.Logf("completed=%d refused-after-shutdown=%d", inFlightOK.Load(), refused.Load())
}
