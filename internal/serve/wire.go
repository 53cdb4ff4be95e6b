package serve

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/wire"
)

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

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string `json:"status"`
	Inflight      int64  `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// Check applies the full /v1/schedule validation to an already-decoded
// request. It is shared by the single, batch, and streaming entry
// points of all three tiers so every path admits exactly the same
// items.
func (req *ScheduleRequest) Check(lim wire.Limits) error {
	return lim.CheckItem(req.Algorithm, req.Instance)
}

// CheckBatch validates the "requests" array of a /v1/batch body —
// non-empty, within the batch cap, every item Check-clean — so a batch
// either starts fully-validated or not at all. clusterd and frontd
// accept the same array and validate it with the same call.
func CheckBatch(reqs []ScheduleRequest, lim wire.Limits) error {
	if len(reqs) == 0 {
		return errors.New("empty batch")
	}
	if len(reqs) > lim.MaxBatch {
		return fmt.Errorf("batch has %d items, limit %d", len(reqs), lim.MaxBatch)
	}
	for i := range reqs {
		if err := reqs[i].Check(lim); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// decodeScheduleRequest decodes and fully validates a /v1/schedule
// body. Anything it accepts is safe to hand to the solvers.
func (s *Server) decodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	var req ScheduleRequest
	if err := wire.DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Check(s.limits); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeSimulateRequest decodes and validates a /v1/simulate body.
func (s *Server) decodeSimulateRequest(r io.Reader) (*SimulateRequest, error) {
	var req SimulateRequest
	if err := wire.DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := s.limits.CheckItem(req.Algorithm, req.Instance); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeBatchRequest decodes and validates a /v1/batch body.
func (s *Server) decodeBatchRequest(r io.Reader) (*BatchRequest, error) {
	var req BatchRequest
	if err := wire.DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := CheckBatch(req.Requests, s.limits); err != nil {
		return nil, err
	}
	return &req, nil
}
