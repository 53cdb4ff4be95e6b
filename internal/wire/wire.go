// Package wire is the serving substrate the three daemons share: schedd
// (internal/serve) and the proxy tier (internal/proxy) that frontd and
// clusterd run are the same two-phase model at three levels, and what
// lies below each level's policy lives here once:
//
//   - the codec: the pooled body reader, strict pooled JSON decode,
//     pooled response writers, the error envelope, the bad-request
//     status classifier, and the per-item limit check (this file); the
//     one-pass scanner of a work item that runs ahead of the strict
//     decode (scan.go); the batch and stream answers, printed once by
//     schedd, checked once on receipt by each tier above and copied at
//     write (splice.go);
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
	"sync/atomic"
	"time"

	"repro/internal/task"
)

// bufPool recycles the byte buffers of the writers: response bodies
// encoded into a pooled buffer and written in one call, the stream
// pump's line buffer, and what DecodeStrict slurps, so the per-request
// garbage is bounded by buffer churn instead of body size. Buffers that
// grew beyond bufMax are dropped rather than pooled, here and in
// bodyPools, keeping one oversized batch from pinning megabytes for the
// server's lifetime.
var bufPool = sync.Pool{New: newBuf}

func newBuf() any { return new(bytes.Buffer) }

const bufMax = 1 << 20

// bodyPools recycles the buffers of the bodies ReadBody reads, by size:
// class k holds buffers of capacity up to bodyClasses[k], and a read
// takes from the class its declared length falls in. A body is held
// until its tier has answered — frontd holds every reply of a batch
// until the batch is written — so a small reply must not pin a buffer
// that a large body, or a writer, grew.
var (
	bodyPools   = [...]sync.Pool{{New: newBuf}, {New: newBuf}, {New: newBuf}}
	bodyClasses = [len(bodyPools)]int{16 << 10, 128 << 10, bufMax}
)

// bodyPool returns the pool of the class a capacity of n falls in, nil
// past bufMax.
func bodyPool(n int) *sync.Pool {
	for k, top := range bodyClasses {
		if n <= top {
			return &bodyPools[k]
		}
	}
	return nil
}

// Scribble makes every buffer handed back to a pool overwritten first,
// so a reader that still holds one after its release reads garbage
// instead of the bytes it expected. A test hook: the use-after-release
// tests switch it on around real traffic; nothing else sets it.
var Scribble atomic.Bool

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= bufMax {
		bufPool.Put(scrub(buf))
	}
}

// scrub empties buf for its next taker, overwriting it under Scribble.
func scrub(buf *bytes.Buffer) *bytes.Buffer {
	buf.Reset()
	if Scribble.Load() {
		all := buf.AvailableBuffer()
		all = all[:cap(all)]
		for i := range all {
			all[i] = '#'
		}
	}
	return buf
}

// ErrorResponse is the JSON error envelope every non-2xx answer of
// every tier carries. Upstream.Post unwraps it so a proxied item error
// reads the same as a directly served one.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Body is a body ReadBody read, in a pooled buffer. The rule: a body
// goes back to the pool once the tier has written its answer, unless
// the tier forwards sub-slices of it. Its owner calls Release once
// nothing reads Bytes any more — the tier's own request body and the
// upstream replies its answer aliases alike. A tier that forwards
// sub-slices of its body (clusterd) calls Keep instead: a cancelled
// hedge's http.Transport may still be reading a forwarded body after
// Upstream.Post has returned (net/http: the body may be closed "in a
// separate goroutine even after RoundTrip returns"), so no point in
// that request's life is a safe one to recycle what it forwards. A
// reply nobody answers with, a hedge loser's, is never released either;
// nobody holds it to release. The zero Body is empty.
type Body struct{ buf *bytes.Buffer }

// Bytes returns the body; it is the pool's again after Release.
func (b Body) Bytes() []byte {
	if b.buf == nil {
		return nil
	}
	return b.buf.Bytes()
}

// Release hands the buffer back to the pool. Call it once per body
// read, whichever copy of the handle it is called on.
func (b *Body) Release() {
	if b.buf == nil {
		return
	}
	if p := bodyPool(b.buf.Cap()); p != nil {
		p.Put(scrub(b.buf))
	}
	b.buf = nil
}

// Keep releases the body and returns a copy of it that is nobody's to
// recycle, for bytes that outlive the answer. The copy is the one
// allocation such a body cost before bodies were pooled; keeping the
// buffer itself instead would drain the pool of a warm buffer per
// request, and every writer after would grow a new one.
func (b *Body) Keep() []byte {
	kept := bytes.Clone(b.Bytes())
	b.Release()
	return kept
}

// ReadBody reads r to its end into a pooled buffer (bodyPools): a
// request body a tier scans, or an upstream's answer; the one read path
// of every tier. length, the declared Content-Length (negative:
// unknown), picks the buffer's class and sizes it in one step where
// io.ReadAll doubles; that size is capped at limit (the tier's body
// cap) and bufMax, and the buffer grows past them as bytes arrive, so a
// length declared and never sent pins no more than a slow client
// sending it would. Errors, http.MaxBytesError among them, surface
// unchanged, and the buffer is back in its pool already.
//
//perf:hotpath
func ReadBody(r io.Reader, length, limit int64) (Body, error) {
	// MinRead of slack is what ReadFrom wants free to meet io.EOF.
	want := int(max(0, min(length, limit, bufMax))) + bytes.MinRead
	buf := bodyPool(min(want, bufMax)).Get().(*bytes.Buffer)
	buf.Grow(want)
	b := Body{buf}
	if _, err := buf.ReadFrom(r); err != nil {
		b.Release()
		return Body{}, err
	}
	return b, nil
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
