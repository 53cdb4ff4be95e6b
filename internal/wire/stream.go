package wire

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// Stream bounds one NDJSON stream request.
type Stream struct {
	// MaxLineBytes caps one input line. One line must hold a whole
	// request, so callers pass the body cap (MaxBytesReader has
	// already bounded the total).
	MaxLineBytes int64
	// MaxItems cuts the stream off with an error line beyond it.
	MaxItems int
	// Window is the number of result futures buffered between reader
	// and writer: the ordering buffer and the in-flight bound at once.
	Window int
}

// Pump serves one /v1/stream request: newline-delimited JSON in, one
// result line out per non-blank input line, in input order, each
// flushed as soon as it and every line before it are resolved.
//
// handle is called once per line, in order, from the single reader
// goroutine. It either resolves the line on the spot (dispatch nil:
// decode and validation failures, shed items, and schedd's sequential
// solve) or returns a dispatch func that Pump runs on its own
// goroutine. line is the pump's, reused once handle returns: handle
// decodes it there or copies it. dispatch must return promptly once ctx
// is done; that is what lets the in-order drain terminate when the
// deadline cuts a stream short.
//
// The bounded futures queue is the backpressure: with Window results
// pending the reader stops consuming the body, so a fast client is
// throttled to the service rate by TCP flow control alone and a slow
// one cannot force unbounded buffering. Per-line failures are reported
// on that line and the stream continues; only a transport-level read
// error ("stream read: …"), the item cap, or the deadline
// ("cancelled: …") end it, each with one final line.
func Pump(ctx context.Context, w http.ResponseWriter, body io.Reader, s Stream,
	handle func(ctx context.Context, idx int, line []byte) (item Result, dispatch func() Result)) {
	rc := http.NewResponseController(w)
	// The stream reads the request body while writing response lines;
	// without full-duplex mode the HTTP/1.x server closes the unread
	// body at the first response write, truncating any stream longer
	// than the server's read-ahead. Errors mean the transport cannot do
	// full-duplex; the short-stream behavior is unchanged then.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")

	// The reader turns lines into single-use future channels and
	// enqueues them in input order. The sends need no ctx case: the
	// drain below never stops before the queue closes, and every future
	// resolves promptly once ctx is done.
	futures := make(chan chan Result, s.Window)
	go func() {
		defer close(futures)
		resolved := func(item Result) {
			fut := make(chan Result, 1)
			fut <- item
			futures <- fut
		}
		// The line buffer is pooled: no line outlives handle, which
		// decodes it or copies it first. Its 64 KB cap is the scanner's
		// starting size, and with MaxLineBytes its token limit.
		lines := getBuf()
		defer putBuf(lines)
		lines.Grow(64 << 10)
		sc := bufio.NewScanner(body)
		sc.Buffer(lines.AvailableBuffer()[:0:64<<10], int(s.MaxLineBytes))
		idx := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if idx >= s.MaxItems {
				resolved(Failed(idx, fmt.Sprintf("stream exceeds %d items", s.MaxItems)))
				return
			}
			if err := ctx.Err(); err != nil {
				resolved(Failed(idx, "cancelled: "+err.Error()))
				return
			}
			item, dispatch := handle(ctx, idx, line)
			if dispatch == nil {
				resolved(item)
			} else {
				fut := make(chan Result, 1)
				go func() { fut <- dispatch() }()
				futures <- fut
			}
			idx++
		}
		if err := sc.Err(); err != nil {
			resolved(Failed(idx, "stream read: "+err.Error()))
		}
	}()

	// Drain in order. Every future receives exactly one item, so this
	// loop ends when the reader does; the handler never returns with a
	// goroutine of its own still running.
	for fut := range futures {
		buf := getBuf()
		item := <-fut
		item.appendLine(buf)
		_, _ = w.Write(buf.Bytes())
		putBuf(buf)
		item.body.Release()
		// Flush per line so the client observes each item before the
		// next is computed.
		_ = rc.Flush()
	}
}
