package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// valued is a served pump-test line: its Response is v as a JSON
// string, which value reads back.
func valued(idx int, v string) Result {
	return Result{Index: idx, Response: json.RawMessage(strconv.Quote(v))}
}

func value(t *testing.T, r Result) string {
	t.Helper()
	var v string
	if err := json.Unmarshal(r.Response, &v); err != nil {
		t.Fatalf("response %q of line %d: %v", r.Response, r.Index, err)
	}
	return v
}

// pumpLines runs one in-memory stream through Pump and decodes the
// result lines.
func pumpLines(t *testing.T, ctx context.Context, body string, s Stream,
	handle func(ctx context.Context, idx int, in []byte) (Result, func() Result)) []Result {
	t.Helper()
	rec := httptest.NewRecorder()
	Pump(ctx, rec, strings.NewReader(body), s, handle)
	return decodeLines(t, rec)
}

func decodeLines(t *testing.T, rec *httptest.ResponseRecorder) []Result {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var out []Result
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var l Result
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

func numbered(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	return b.String()
}

// TestPumpKeepsInputOrder completes dispatches in reverse order — the
// later the line, the sooner it resolves — and mixes in lines resolved
// on the spot and blank lines: the output must still be one line per
// non-blank input, in input order, indexed without the blanks.
func TestPumpKeepsInputOrder(t *testing.T) {
	const n = 12
	body := "\n" + strings.ReplaceAll(numbered(n), "\n", "\n  \n")
	got := pumpLines(t, context.Background(), body, Stream{MaxLineBytes: 1 << 10, MaxItems: 100, Window: n},
		func(_ context.Context, idx int, in []byte) (Result, func() Result) {
			v := string(in) // the pump reuses in after handle returns
			if idx%3 == 0 {
				return valued(idx, v), nil
			}
			return Result{}, func() Result {
				time.Sleep(time.Duration(n-idx) * 2 * time.Millisecond)
				return valued(idx, v)
			}
		})
	if len(got) != n {
		t.Fatalf("%d result lines for %d inputs", len(got), n)
	}
	for i, l := range got {
		if l.Index != i || value(t, l) != strconv.Itoa(i) {
			t.Fatalf("position %d holds %+v", i, l)
		}
	}
}

// TestPumpBoundsInflight: the futures queue is the in-flight window.
// Window results wait between reader and writer; with the one the
// writer is blocked on and the one the reader is about to enqueue, at
// most Window+2 dispatches ever run at once, however long the input.
func TestPumpBoundsInflight(t *testing.T) {
	const window, n = 3, 40
	var cur, peak atomic.Int64
	got := pumpLines(t, context.Background(), numbered(n), Stream{MaxLineBytes: 1 << 10, MaxItems: 100, Window: window},
		func(_ context.Context, idx int, _ []byte) (Result, func() Result) {
			return Result{}, func() Result {
				c := cur.Add(1)
				for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return Result{Index: idx}
			}
		})
	if len(got) != n {
		t.Fatalf("%d result lines for %d inputs", len(got), n)
	}
	if p := peak.Load(); p > window+2 || p < 2 {
		t.Fatalf("peak in-flight dispatches %d, want concurrency within the window bound %d", p, window+2)
	}
}

func TestPumpItemCapEndsStream(t *testing.T) {
	handled := 0
	got := pumpLines(t, context.Background(), numbered(5), Stream{MaxLineBytes: 1 << 10, MaxItems: 2, Window: 4},
		func(_ context.Context, idx int, _ []byte) (Result, func() Result) {
			handled++
			return Result{Index: idx}, nil
		})
	if len(got) != 3 || handled != 2 {
		t.Fatalf("%d lines / %d handled, want 2 results + 1 cap line", len(got), handled)
	}
	if last := got[2]; last.Index != 2 || last.Error != "stream exceeds 2 items" {
		t.Fatalf("cap line: %+v", last)
	}
}

func TestPumpOversizedLineIsAReadError(t *testing.T) {
	// The scanner starts with a 64 KiB buffer, so the cap binds only
	// past that.
	body := "ok\n" + strings.Repeat("x", 80<<10) + "\nnever\n"
	got := pumpLines(t, context.Background(), body, Stream{MaxLineBytes: 70 << 10, MaxItems: 10, Window: 2},
		func(_ context.Context, idx int, in []byte) (Result, func() Result) {
			return valued(idx, string(in[:2])), nil
		})
	if len(got) != 2 || value(t, got[0]) != "ok" {
		t.Fatalf("%d lines, first %+v", len(got), got[0])
	}
	if last := got[1]; last.Index != 1 || !strings.HasPrefix(last.Error, "stream read: ") {
		t.Fatalf("read-error line: %+v", last)
	}
}

// TestPumpDeadlineCutsStream: once ctx is done the dispatches in
// flight resolve (promptly, by contract), the next unread line is
// answered with one cancelled line, and Pump returns — the drain never
// waits on input that will not be processed.
func TestPumpDeadlineCutsStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Pump(ctx, rec, strings.NewReader(numbered(50)), Stream{MaxLineBytes: 1 << 10, MaxItems: 100, Window: 2},
			func(ctx context.Context, idx int, _ []byte) (Result, func() Result) {
				return Result{}, func() Result {
					if idx == 1 {
						cancel()
					}
					<-ctx.Done()
					return Failed(idx, "cancelled: "+ctx.Err().Error())
				}
			})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pump did not return after its context was cancelled")
	}
	got := decodeLines(t, rec)
	if len(got) < 2 || len(got) >= 50 {
		t.Fatalf("%d lines from a stream cut at item 1", len(got))
	}
	for i, l := range got {
		if l.Index != i || l.Error != "cancelled: context canceled" {
			t.Fatalf("line %d: %+v", i, l)
		}
	}
}

// TestPumpNoGoroutineLeakOnDisconnect streams over a real socket and
// hangs up mid-stream with dispatches in flight: the handler must
// return and every goroutine the pump started must exit.
func TestPumpNoGoroutineLeakOnDisconnect(t *testing.T) {
	var handlers sync.WaitGroup
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlers.Add(1)
		defer handlers.Done()
		Pump(r.Context(), w, r.Body, Stream{MaxLineBytes: 1 << 10, MaxItems: 1000, Window: 4},
			func(ctx context.Context, idx int, _ []byte) (Result, func() Result) {
				return Result{}, func() Result {
					SleepCtx(ctx, 5*time.Millisecond)
					return Result{Index: idx}
				}
			})
	}))
	defer ts.Close()
	before := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(conn, "2\r\n%d\n\r\n", i)
	}
	// Wait for the first result line so the stream is demonstrably
	// mid-flight, then vanish without finishing the body.
	if _, err := bufio.NewReader(conn).ReadString('}'); err != nil {
		t.Fatalf("no result line before the hang-up: %v", err)
	}
	conn.Close()
	handlers.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, started with %d: the pump leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
