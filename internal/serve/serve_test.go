package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// decodeScheduleRequest is the /v1/schedule handler's read-and-decode
// step over any reader (FuzzDecodeInstance's entry point).
func (s *Server) decodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	body, err := wire.ReadBody(r, -1, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	return DecodeItem(body.Bytes(), s.limits) // never released: the request aliases it
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

const validSchedule = `{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5],"actuals":[4.4,1.8,6.6,1.1,4.5]}}`

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/schedule", validSchedule)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Algorithm != "LPT-NoRestriction" || out.N != 5 || out.M != 3 {
		t.Fatalf("shape: %+v", out)
	}
	if out.Makespan <= 0 || out.Optimum.Lower <= 0 || out.Optimum.Upper < out.Optimum.Lower {
		t.Fatalf("scoring: %+v", out)
	}
	if out.Guarantee == nil || out.BoundOK == nil {
		t.Fatal("guarantee missing for lpt-norestriction")
	}
	if !*out.BoundOK {
		t.Fatalf("theorem violated?! makespan %v guarantee %v optimum %+v",
			out.Makespan, *out.Guarantee, out.Optimum)
	}
	if out.Schedule == nil || out.Placement == nil {
		t.Fatal("schedule/placement missing")
	}
}

func TestScheduleRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTasks: 4, MaxMachines: 8})
	cases := []struct {
		name, body string
		status     int
	}{
		{"invalid json", `{`, 400},
		{"trailing garbage", validSchedule + `x`, 400},
		{"unknown field", `{"algorithm":"oracle-lpt","bogus":1,"instance":{"m":1,"alpha":1,"estimates":[1]}}`, 400},
		{"missing algorithm", `{"instance":{"m":1,"alpha":1,"estimates":[1]}}`, 400},
		{"missing instance", `{"algorithm":"oracle-lpt"}`, 400},
		{"zero machines", `{"algorithm":"oracle-lpt","instance":{"m":0,"alpha":1,"estimates":[1]}}`, 400},
		{"negative estimate", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[-1]}}`, 400},
		{"NaN alpha", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":null,"estimates":[1]}}`, 400},
		{"alpha below one", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":0.5,"estimates":[1]}}`, 400},
		{"actual outside band", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[1],"actuals":[9]}}`, 400},
		{"overflowing times", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[1e308,1e308,1e308]}}`, 400},
		{"too many tasks", `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[1,1,1,1,1]}}`, 400},
		{"too many machines", `{"algorithm":"oracle-lpt","instance":{"m":9,"alpha":1,"estimates":[1]}}`, 400},
		{"unknown algorithm", `{"algorithm":"nope","instance":{"m":1,"alpha":1,"estimates":[1]}}`, 422},
		{"group does not divide m", `{"algorithm":"ls-group:3","instance":{"m":4,"alpha":1,"estimates":[1,2,3]}}`, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, "/v1/schedule", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var e wire.ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", data)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule status %d", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := `{"algorithm":"oracle-lpt","instance":{"m":1,"alpha":1,"estimates":[` +
		strings.Repeat("1,", 500) + `1]}}`
	resp, data := post(t, ts, "/v1/schedule", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.MaxInflight != 7 {
		t.Fatalf("health: %+v", out)
	}
}

// TestSaturatedReturns429 is the acceptance check for backpressure: a
// server whose only solver slot is occupied answers 429 immediately on
// /v1/batch (and /v1/schedule and /v1/stream) rather than queueing.
func TestSaturatedReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Occupy the single slot deterministically.
	if !s.slots.TryAdd(1) {
		t.Fatal("fresh server has no free slot")
	}
	defer s.slots.Sub(1)

	batch := `{"requests":[` + validSchedule + `]}`
	for _, path := range []string{"/v1/batch", "/v1/schedule", "/v1/stream"} {
		body := validSchedule
		if path == "/v1/batch" {
			body = batch
		}
		resp, data := post(t, ts, path, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429: %s", path, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: missing Retry-After", path)
		}
	}

	// Health and metrics must stay reachable while saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d while saturated", path, resp.StatusCode)
		}
	}
}

// TestPanicRecovery wires a panicking algorithm through the batch
// fan-out and checks the daemon answers 500 and keeps serving.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Hand-crafted handler path: panic inside the instrumented stack.
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("hostile instance")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic produced status %d", rec.Code)
	}
	// The real server is still alive afterwards.
	resp, data := post(t, ts, "/v1/schedule", validSchedule)
	if resp.StatusCode != 200 {
		t.Fatalf("server dead after panic: %d %s", resp.StatusCode, data)
	}
}

// TestRequestTimeoutCancelsBatch gives the batch a deadline far too
// small for its items and checks the response arrives with cancelled
// items instead of hanging.
func TestRequestTimeoutCancelsBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond, Workers: 2})
	var items []string
	for i := 0; i < 16; i++ {
		items = append(items, validSchedule)
	}
	resp, data := post(t, ts, "/v1/batch", `{"requests":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 16 {
		t.Fatalf("%d results", len(out.Results))
	}
	cancelled := 0
	for _, item := range out.Results {
		if item.Error != "" {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("nanosecond deadline cancelled nothing")
	}
}

// TestDeclaredLengthNeverSentPinsNoMoreThanTheCap: a request that
// declares a gigabyte and sends a few bytes is read into a slice sized
// from the declaration only up to the preallocation cap (1 MiB, and the
// body cap when that is smaller), answered 400 when the body ends
// short, and has cost the server about that much memory, not what it
// announced.
func TestDeclaredLengthNeverSentPinsNoMoreThanTheCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2 << 30})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/schedule HTTP/1.1\r\nHost: schedd\r\nContent-Type: application/json\r\n"+
		"Content-Length: 1073741824\r\n\r\n"+`{"algorithm":"oracle-lpt","instance":{"m":1,`); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400 for a body that ends short of its length", resp.StatusCode)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("a 1 GiB Content-Length with 44 bytes behind it made the server allocate %d bytes", got)
	}
}
