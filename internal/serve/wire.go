package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
)

// jsonBufPool recycles the byte buffers of the request/response paths:
// response bodies are encoded into a pooled buffer and written in one
// call, and request bodies are slurped into a pooled buffer before
// decoding, so the per-request garbage is bounded by buffer churn
// instead of body size. Buffers that grew beyond jsonBufMax are
// dropped rather than pooled, keeping one oversized batch from
// pinning megabytes for the server's lifetime.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const jsonBufMax = 1 << 20

func getJSONBuf() *bytes.Buffer { return jsonBufPool.Get().(*bytes.Buffer) }

func putJSONBuf(buf *bytes.Buffer) {
	if buf.Cap() > jsonBufMax {
		return
	}
	buf.Reset()
	jsonBufPool.Put(buf)
}

// ScheduleRequest asks for one algorithm run on one instance.
type ScheduleRequest struct {
	// Algorithm is a name accepted by the algo registry (see
	// GET /v1/algorithms).
	Algorithm string `json:"algorithm"`
	// Instance is the problem instance. Actual times default to the
	// estimates when omitted (the perfectly-estimated case).
	Instance *task.Instance `json:"instance"`
	// ExactLimit optionally overrides the server's exact-optimum task
	// cap for this request; it is clamped to the server's own limit.
	ExactLimit int `json:"exact_limit,omitempty"`
}

// OptimumInfo mirrors opt.Result on the wire.
type OptimumInfo struct {
	Lower  float64 `json:"lower"`
	Upper  float64 `json:"upper"`
	Exact  bool    `json:"exact"`
	Method string  `json:"method"`
}

// ScheduleResponse reports one executed algorithm run.
type ScheduleResponse struct {
	Algorithm string               `json:"algorithm"`
	N         int                  `json:"n"`
	M         int                  `json:"m"`
	Alpha     float64              `json:"alpha"`
	Makespan  float64              `json:"makespan"`
	Placement *placement.Placement `json:"placement"`
	Schedule  *sched.Schedule      `json:"schedule"`
	Optimum   OptimumInfo          `json:"optimum"`
	// RatioLower/RatioUpper bracket the empirical competitive ratio
	// makespan/C* using the optimum bracket.
	RatioLower float64 `json:"ratio_lower"`
	RatioUpper float64 `json:"ratio_upper"`
	// Guarantee is the paper's analytic competitive-ratio bound for
	// this algorithm on (m, α); omitted when no bound is stated.
	Guarantee *float64 `json:"guarantee,omitempty"`
	// BoundOK reports the guarantee check makespan ≤ guarantee·C*_upper
	// (with a relative tolerance); omitted with Guarantee. A false here
	// is a certified violation of the theorem — worth a bug report.
	BoundOK *bool `json:"bound_ok,omitempty"`
}

// SimulateRequest asks for a traced semi-clairvoyant replay.
type SimulateRequest struct {
	Algorithm string         `json:"algorithm"`
	Instance  *task.Instance `json:"instance"`
}

// TraceEvent is one start/finish event of a machine's timeline.
type TraceEvent struct {
	Time float64 `json:"time"`
	Task int     `json:"task"`
	Kind string  `json:"kind"`
}

// MachineTrace is the executed timeline of one machine.
type MachineTrace struct {
	Machine int          `json:"machine"`
	Events  []TraceEvent `json:"events"`
}

// SimulateResponse reports a traced replay.
type SimulateResponse struct {
	Algorithm string               `json:"algorithm"`
	Makespan  float64              `json:"makespan"`
	Placement *placement.Placement `json:"placement"`
	Schedule  *sched.Schedule      `json:"schedule"`
	Machines  []MachineTrace       `json:"machines"`
}

// BatchRequest bundles many schedule requests.
type BatchRequest struct {
	Requests []ScheduleRequest `json:"requests"`
}

// BatchItem is the outcome of one batch entry: exactly one of
// Response and Error is set. Items appear in input order.
type BatchItem struct {
	Index    int               `json:"index"`
	Response *ScheduleResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchResponse reports a whole batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// AlgorithmsResponse lists the registry's accepted name patterns.
type AlgorithmsResponse struct {
	Algorithms []string `json:"algorithms"`
}

// HealthResponse is the /healthz payload. Exported so HTTP clients of
// the daemon (the cluster dispatcher's health prober, ops tooling) can
// decode probes with the server's own type.
type HealthResponse struct {
	Status        string `json:"status"`
	Inflight      int64  `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

type healthResponse = HealthResponse

// ErrorResponse is the JSON error envelope every non-2xx answer
// carries. Exported for clients that surface backend errors verbatim
// (the cluster dispatcher relies on this to keep batch items
// byte-identical whether they pass through a proxy or not).
type ErrorResponse struct {
	Error string `json:"error"`
}

type errorResponse = ErrorResponse

// DecodeStrict decodes exactly one JSON value from r into v,
// rejecting unknown fields and trailing garbage. It is the single
// entry point for every request body (and the fuzzing surface), and is
// exported so sibling services (the cluster dispatcher) share the same
// decoding discipline.
func DecodeStrict(r io.Reader, v any) error {
	// Slurp the body through a pooled buffer first: the decoder then
	// reads from memory (no repeated small network reads), and read
	// errors — including http.MaxBytesError — surface unchanged.
	buf := getJSONBuf()
	defer putJSONBuf(buf)
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

// checkInstance applies the serving limits and the centralized
// task.Instance validation to a submitted instance. withActuals is
// always true here: the wire decoder defaults actuals to estimates,
// so a well-formed request always carries a fully-specified instance.
func (s *Server) checkInstance(in *task.Instance) error {
	if in == nil {
		return errors.New("missing instance")
	}
	if in.N() > s.cfg.MaxTasks {
		return fmt.Errorf("instance has %d tasks, limit %d", in.N(), s.cfg.MaxTasks)
	}
	if in.M > s.cfg.MaxMachines {
		return fmt.Errorf("instance has %d machines, limit %d", in.M, s.cfg.MaxMachines)
	}
	return in.Validate(true)
}

// validateScheduleRequest applies the full /v1/schedule validation to
// an already-decoded request. It is shared by the single, batch, and
// streaming entry points so every path admits exactly the same items.
func (s *Server) validateScheduleRequest(req *ScheduleRequest) error {
	if req.Algorithm == "" {
		return errors.New("missing algorithm")
	}
	return s.checkInstance(req.Instance)
}

// decodeScheduleRequest decodes and fully validates a /v1/schedule
// body. Anything it accepts is safe to hand to the solvers.
func (s *Server) decodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	var req ScheduleRequest
	if err := DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := s.validateScheduleRequest(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeSimulateRequest decodes and validates a /v1/simulate body.
func (s *Server) decodeSimulateRequest(r io.Reader) (*SimulateRequest, error) {
	var req SimulateRequest
	if err := DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if req.Algorithm == "" {
		return nil, errors.New("missing algorithm")
	}
	if err := s.checkInstance(req.Instance); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeBatchRequest decodes a /v1/batch body and validates every
// item, so a batch either starts fully-validated or not at all.
func (s *Server) decodeBatchRequest(r io.Reader) (*BatchRequest, error) {
	var req BatchRequest
	if err := DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if len(req.Requests) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch has %d items, limit %d", len(req.Requests), s.cfg.MaxBatch)
	}
	for i := range req.Requests {
		if err := s.validateScheduleRequest(&req.Requests[i]); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return &req, nil
}

// writeJSON encodes v with a trailing newline (json.Encoder
// convention, matching the repo's other writers). The body is staged
// in a pooled buffer and flushed with a single Write — byte-identical
// to encoding straight into the ResponseWriter (Encode marshals fully
// before writing, so a failed encode writes nothing in both versions).
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	// Unmarshalable values are programming errors covered by tests; the
	// empty-body behavior on failure matches the unbuffered version.
	_ = json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError answers with a JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// badRequest classifies a decode/validation error: oversized bodies
// keep the 413 the MaxBytesReader implies, a well-formed instance whose
// durations the simulator's tick range cannot hold is a 422 like every
// other request the pipeline cannot execute, everything else is a 400.
func badRequest(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, task.ErrTickRange):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// ParseRetryAfter reads a delay-seconds Retry-After value; anything
// unparsable yields 0 and the caller's default applies. Exported so
// HTTP clients of the daemons (the cluster dispatcher, the front
// tier, cmd/loadgen) honor throttle hints with one parser.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// contextWithTimeout derives the per-request deadline.
func contextWithTimeout(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), d)
}
