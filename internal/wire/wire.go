// Package wire is the serving substrate the three daemons share: schedd
// (internal/serve) and the proxy tier (internal/proxy) that frontd and
// clusterd run are the same two-phase model at three levels, and what
// lies below each level's policy lives here once:
//
//   - the codec: strict pooled JSON decode, pooled response writers,
//     the error envelope, the bad-request status classifier, and the
//     per-item limit check (this file); the one-pass scanner of a work
//     item that runs ahead of the strict decode (scan.go); the batch and
//     stream answers, printed once by schedd, checked once on receipt
//     by each tier above and copied at write (splice.go);
//   - the ordered NDJSON stream pump behind every /v1/stream (stream.go);
//   - Upstream and Pool: the in-flight count, consecutive-failure
//     breaker, /healthz prober and POST-and-classify step a tier keeps
//     per downstream daemon, over the pool's own connection-keeping
//     transport (upstream.go);
//   - Route: the pick → attempt → retry dispatch loop, hedging included,
//     that the proxy tier runs under either policy (dispatch.go);
//   - Level, the bounded admission counter (admit.go);
//   - ServeUntil, the daemons' listen-serve-drain loop (daemon.go).
//
// SERVING.md's "shared substrate" section is the contract reference.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/task"
)

// bufPool recycles the byte buffers of the request/response paths:
// response bodies are encoded into a pooled buffer and written in one
// call, and DecodeStrict slurps what it decodes into one, so the
// per-request garbage is bounded by buffer churn instead of body size.
// Buffers that grew beyond bufMax are dropped rather than pooled,
// keeping one oversized batch from pinning megabytes for the server's
// lifetime. Nothing a tier forwards upstream comes from here
// (ReadBody).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bufMax = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > bufMax {
		return
	}
	buf.Reset()
	bufPool.Put(buf)
}

// ErrorResponse is the JSON error envelope every non-2xx answer of
// every tier carries. Upstream.Post unwraps it so a proxied item error
// reads the same as a directly served one.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ReadBody reads r to its end into a slice of its own: a request body
// a tier scans and then forwards by sub-slice, or an upstream's answer.
// The slice is the garbage collector's and never pooled: a cancelled
// hedge's http.Transport may still be reading a forwarded body after
// Upstream.Post has returned (net/http: the body may be closed "in a
// separate goroutine even after RoundTrip returns"), so no point in
// the request's life is a safe one to recycle it. length, the declared
// Content-Length (negative: unknown), sizes it in one allocation where
// io.ReadAll doubles; that preallocation is capped at limit (the tier's
// body cap) and bufMax, and grows past them as bytes arrive, so a
// length declared and never sent pins no more than a slow client
// sending it would. Errors, http.MaxBytesError among them, surface
// unchanged.
func ReadBody(r io.Reader, length, limit int64) ([]byte, error) {
	// MinRead of slack is what ReadFrom wants free to meet io.EOF.
	buf := bytes.NewBuffer(make([]byte, 0, max(0, min(length, limit, bufMax))+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// DecodeStrict decodes exactly one JSON value from r into v,
// rejecting unknown fields and trailing garbage. It is the one
// decoder of every request body and stream line of every tier (and
// the fuzzing surface): ScanItem and ScanBatch run ahead of it on a
// work item's canonical spelling and hand it everything else.
func DecodeStrict(r io.Reader, v any) error {
	// Slurp the body through a pooled buffer first: the decoder then
	// reads from memory (no repeated small network reads), and read
	// errors — including http.MaxBytesError — surface unchanged.
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second token means trailing garbage after the value.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// WriteJSON encodes v with a trailing newline (json.Encoder
// convention, matching the repo's other writers). The body is staged
// in a pooled buffer and flushed with a single Write — byte-identical
// to encoding straight into the ResponseWriter (Encode marshals fully
// before writing, so a failed encode writes nothing in both versions)
// — under its Content-Length, which net/http only works out itself for
// a body under 2 KB and otherwise replaces with chunking. The
// metamorphic byte-identity tests depend on every tier answering
// through this one writer.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	Encode(buf, v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// WriteError answers with a JSON error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// BadRequest answers a decode/validation error with its status:
// oversized bodies keep the 413 the MaxBytesReader implies, a
// well-formed instance whose durations the simulator's tick range
// cannot hold is a 422 like every other request the pipeline cannot
// execute, everything else is a 400.
func BadRequest(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, task.ErrTickRange):
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// ParseRetryAfter reads a delay-seconds Retry-After value; anything
// unparsable yields 0 and the caller's default applies.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Limits are the shape caps a tier applies to submitted work. The
// proxy tiers mirror schedd's values so each rejects what the tier
// below would.
type Limits struct {
	MaxTasks    int // tasks per instance
	MaxMachines int // machines per instance
	MaxBatch    int // items per /v1/batch request
}

// CheckItem applies the per-item limits and the centralized
// task.Instance validation to one work item. Every entry point of
// every tier — single, batch and stream — admits exactly the items
// this accepts. withActuals is always true: the wire decoder defaults
// actuals to estimates, so a well-formed request always carries a
// fully-specified instance.
func (l Limits) CheckItem(algorithm string, in *task.Instance) error {
	if algorithm == "" {
		return errors.New("missing algorithm")
	}
	if in == nil {
		return errors.New("missing instance")
	}
	if in.N() > l.MaxTasks {
		return fmt.Errorf("instance has %d tasks, limit %d", in.N(), l.MaxTasks)
	}
	if in.M > l.MaxMachines {
		return fmt.Errorf("instance has %d machines, limit %d", in.M, l.MaxMachines)
	}
	return in.Validate(true)
}
