package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/task"
)

func TestDecodeStrict(t *testing.T) {
	type body struct {
		A int `json:"a"`
	}
	cases := []struct {
		in string
		ok bool
	}{
		{`{"a":1}`, true},
		{` {"a":1} ` + "\n", true},
		{`{"a":1,"b":2}`, false}, // unknown field
		{`{"a":1}{"a":2}`, false},
		{`{"a":1} x`, false},
		{`{"a":`, false},
		{``, false},
	}
	for _, tc := range cases {
		var v body
		err := DecodeStrict(strings.NewReader(tc.in), &v)
		if (err == nil) != tc.ok {
			t.Errorf("DecodeStrict(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && v.A != 1 {
			t.Errorf("DecodeStrict(%q) decoded %+v", tc.in, v)
		}
	}
}

// TestBadRequestClassifier pins the status table every tier answers
// from: 413 for a body past the cap, 422 for an instance the tick range
// cannot hold, 400 otherwise, always under the error envelope.
func TestBadRequestClassifier(t *testing.T) {
	tooLarge := &http.MaxBytesError{Limit: 8}
	cases := []struct {
		err    error
		status int
	}{
		{fmt.Errorf("item 3: %w", tooLarge), http.StatusRequestEntityTooLarge},
		{fmt.Errorf("item 0: %w", task.ErrTickRange), http.StatusUnprocessableEntity},
		{fmt.Errorf("empty batch"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		BadRequest(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != tc.err.Error() {
			t.Errorf("%v: envelope %q (%v)", tc.err, rec.Body.String(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%v: Content-Type %q", tc.err, ct)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := map[string]time.Duration{
		"1":   time.Second,
		"0":   0,
		"":    0,
		"x":   0,
		"-5":  0,
		" 2 ": 2 * time.Second,
	}
	for in, want := range cases {
		if got := ParseRetryAfter(in); got != want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRetryDelayClamps(t *testing.T) {
	const limit = 2 * time.Second
	cases := map[time.Duration]time.Duration{
		0:               100 * time.Millisecond, // header absent: short default
		-time.Second:    100 * time.Millisecond,
		time.Second:     time.Second,
		5 * time.Second: limit,
	}
	for hint, want := range cases {
		if got := RetryDelay(hint, limit); got != want {
			t.Errorf("RetryDelay(%v) = %v, want %v", hint, got, want)
		}
	}
}

func TestLimitsCheckItem(t *testing.T) {
	lim := Limits{MaxTasks: 2, MaxMachines: 2}
	in := func(m int, est ...float64) *task.Instance {
		inst := &task.Instance{M: m, Alpha: 1}
		for j, e := range est {
			inst.Tasks = append(inst.Tasks, task.Task{ID: j, Estimate: e, Actual: e})
		}
		return inst
	}
	cases := []struct {
		alg  string
		in   *task.Instance
		want string // substring of the error, "" for accepted
	}{
		{"oracle-lpt", in(2, 1, 2), ""},
		{"", in(1, 1), "missing algorithm"},
		{"oracle-lpt", nil, "missing instance"},
		{"oracle-lpt", in(1, 1, 2, 3), "3 tasks, limit 2"},
		{"oracle-lpt", in(3, 1), "3 machines, limit 2"},
		{"oracle-lpt", in(1, 1e10), task.ErrTickRange.Error()},
	}
	for _, tc := range cases {
		err := lim.CheckItem(tc.alg, tc.in)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("valid item rejected: %v", err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("err = %v, want it to name %q", err, tc.want)
		}
	}
}

// TestLevel covers both uses of the admission primitive: frontd's
// all-or-nothing batch admission and schedd's one-slot-at-a-time
// semaphore under contention.
func TestLevel(t *testing.T) {
	g := obs.GetGauge("wire.test.level")
	base := g.Load()
	l := NewLevel(4, g)
	if !l.TryAdd(3) {
		t.Fatal("TryAdd under cap failed")
	}
	if l.TryAdd(2) {
		t.Fatal("TryAdd overshot the cap")
	}
	if l.Load() != 3 || g.Load()-base != 3 {
		t.Fatalf("a refused TryAdd moved the level: %d (gauge %+d)", l.Load(), g.Load()-base)
	}
	if !l.TryAdd(1) {
		t.Fatal("TryAdd at exactly cap failed")
	}
	l.Sub(4)
	if l.Load() != 0 || g.Load() != base {
		t.Fatalf("level = %d, gauge %+d after drain", l.Load(), g.Load()-base)
	}
	// No level at all is no admission control.
	var none *Level
	if none.Sub(1); !none.TryAdd(1<<30) || none.Load() != 0 {
		t.Fatal("a nil level refused, or held, work")
	}

	// Semaphore use: 16 goroutines fight over 4 slots; holders never
	// exceed the cap and everything drains.
	var wg sync.WaitGroup
	var mu sync.Mutex
	held, maxHeld, refused := 0, 0, 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if !l.TryAdd(1) {
					mu.Lock()
					refused++
					mu.Unlock()
					continue
				}
				mu.Lock()
				held++
				if held > maxHeld {
					maxHeld = held
				}
				mu.Unlock()
				time.Sleep(time.Microsecond)
				mu.Lock()
				held--
				mu.Unlock()
				l.Sub(1)
			}
		}()
	}
	wg.Wait()
	if maxHeld > 4 {
		t.Fatalf("%d holders under a cap of 4", maxHeld)
	}
	if l.Load() != 0 || g.Load() != base {
		t.Fatalf("level = %d, gauge %+d after the storm (%d refusals)", l.Load(), g.Load()-base, refused)
	}
}

func TestSleepCtx(t *testing.T) {
	if !SleepCtx(context.Background(), 0) || !SleepCtx(context.Background(), time.Millisecond) {
		t.Fatal("SleepCtx under a live ctx did not complete")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if SleepCtx(ctx, 0) || SleepCtx(ctx, time.Hour) {
		t.Fatal("SleepCtx under a done ctx reported a full sleep")
	}
}

func TestSplitURLs(t *testing.T) {
	got := SplitURLs(" http://a:8080/ ,, http://b:8080 ,")
	if want := []string{"http://a:8080", "http://b:8080"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitURLs = %v, want %v", got, want)
	}
	if got := SplitURLs(" , "); got != nil {
		t.Fatalf("SplitURLs of blanks = %v, want nil", got)
	}
}

// TestServeUntil drives the daemon loop: listen on port 0, answer,
// drain an in-flight request after cancellation, and return nil.
func TestServeUntil(t *testing.T) {
	if err := ServeUntil(context.Background(), "256.256.256.256:99999", http.NotFoundHandler(), time.Second, nil); err == nil {
		t.Fatal("accepted a bad listen address")
	}

	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		fmt.Fprint(w, "ok")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- ServeUntil(ctx, "127.0.0.1:0", h, 5*time.Second, ready) }()
	base := "http://" + (<-ready).String()

	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		slow <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		t.Fatalf("returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight request lost in the drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

// TestServeUntilDrainBudget: a request that outlives the drain budget
// surfaces as a shutdown error instead of hanging the daemon.
func TestServeUntilDrainBudget(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- ServeUntil(ctx, "127.0.0.1:0", h, 10*time.Millisecond, ready) }()
	base := "http://" + (<-ready).String()
	go func() {
		if resp, err := http.Get(base); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "shutdown") {
		t.Fatalf("err = %v, want a shutdown error", err)
	}
}
