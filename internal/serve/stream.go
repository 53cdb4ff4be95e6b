// Streaming surface: the open-system counterparts of the batch
// endpoints. /v1/stream accepts newline-delimited JSON — one schedule
// request per line — and answers with one NDJSON result line per item,
// flushed as soon as it is computed, so a client submitting an open
// stream of work sees results while later items are still in flight
// (or not yet written). /v1/simulate-open replays one instance under
// an arrival process with replica cancellation and reports the
// response-time distribution, the metric the open-system replication
// literature argues for instead of makespan.

package serve

import (
	"context"
	"net/http"

	"repro/internal/algo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ArrivalSpec mirrors workload.ArrivalSpec on the wire: an arrival
// process name plus its parameters. "batch" (everything at t=0) needs
// none; "poisson" and "mmpp" need a rate; "trace" carries explicit
// times.
type ArrivalSpec struct {
	Process       string    `json:"process"`
	Rate          float64   `json:"rate,omitempty"`
	Seed          uint64    `json:"seed,omitempty"`
	BurstFactor   float64   `json:"burst_factor,omitempty"`
	BurstFraction float64   `json:"burst_fraction,omitempty"`
	Times         []float64 `json:"times,omitempty"`
}

func (a ArrivalSpec) toWorkload() workload.ArrivalSpec {
	return workload.ArrivalSpec{
		Process:       a.Process,
		Rate:          a.Rate,
		Seed:          a.Seed,
		BurstFactor:   a.BurstFactor,
		BurstFraction: a.BurstFraction,
		Times:         a.Times,
	}
}

// SimulateOpenRequest asks for one open-system replay.
type SimulateOpenRequest struct {
	Algorithm string         `json:"algorithm"`
	Instance  *task.Instance `json:"instance"`
	Arrivals  ArrivalSpec    `json:"arrivals"`
	// Policy is "cancel-on-start" (default) or "cancel-on-completion".
	Policy string `json:"policy,omitempty"`
	// CancelCost is the per-cancellation machine-time overhead charged
	// under cancel-on-completion.
	CancelCost float64 `json:"cancel_cost,omitempty"`
}

// ResponseStats summarizes a response-time distribution on the wire.
type ResponseStats struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// SimulateOpenResponse reports one open-system replay.
type SimulateOpenResponse struct {
	Algorithm string `json:"algorithm"`
	Policy    string `json:"policy"`
	// End is the last instant any machine is busy.
	End           float64       `json:"end"`
	ResponseStats ResponseStats `json:"response_stats"`
	// Responses[j] is task j's completion − arrival time.
	Responses         []float64       `json:"responses"`
	CancelledReplicas int             `json:"cancelled_replicas"`
	WastedTime        float64         `json:"wasted_time"`
	Schedule          *sched.Schedule `json:"schedule"`
}

// StreamItem is one NDJSON result line of /v1/stream: a BatchItem
// whose Index is the zero-based input line position (blank lines not
// counted).
type StreamItem = BatchItem

// RunSimulateOpen is the pure core of /v1/simulate-open: generate (or
// validate) the arrival stream, run the algorithm in open mode
// (algo.ExecuteOpen) under the requested cancellation policy, and
// summarize the response times.
func (s *Server) RunSimulateOpen(req *SimulateOpenRequest) (*SimulateOpenResponse, error) {
	a, err := algo.New(req.Algorithm)
	if err != nil {
		return nil, err
	}
	policy, err := sim.ParseCancelPolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	arrive, err := workload.Arrivals(req.Instance.N(), req.Arrivals.toWorkload())
	if err != nil {
		return nil, err
	}
	res, err := algo.ExecuteOpen(req.Instance, a, arrive, sim.OpenOptions{
		Policy:     policy,
		CancelCost: req.CancelCost,
	})
	if err != nil {
		return nil, err
	}
	out := res.Open
	sum := stats.Summarize(out.Responses)
	return &SimulateOpenResponse{
		Algorithm: res.Algorithm,
		Policy:    policy.String(),
		End:       out.End,
		ResponseStats: ResponseStats{
			N:    sum.N,
			Mean: sum.Mean,
			P50:  sum.P50,
			P90:  sum.P90,
			P99:  sum.P99,
			P999: sum.P999,
			Max:  sum.Max,
		},
		Responses:         out.Responses,
		CancelledReplicas: out.CancelledReplicas,
		WastedTime:        out.WastedTime,
		Schedule:          out.Schedule,
	}, nil
}

// decodeSimulateOpenRequest decodes and validates a /v1/simulate-open
// body. The arrival spec itself is validated by workload.Arrivals at
// run time (the process registry owns those rules), so only the parts
// every endpoint checks are enforced here.
func (s *Server) decodeSimulateOpenRequest(r *http.Request) (*SimulateOpenRequest, error) {
	var req SimulateOpenRequest
	if err := wire.DecodeStrict(r.Body, &req); err != nil {
		return nil, err
	}
	if err := s.limits.CheckItem(req.Algorithm, req.Instance); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleSimulateOpen(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeSimulateOpenRequest(r)
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	resp, err := s.RunSimulateOpen(req)
	if err != nil {
		// Well-formed JSON rejected by the pipeline: unknown algorithm,
		// bad arrival parameters, bad policy, NaN cancel cost, ...
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleStream serves POST /v1/stream on the shared pump (wire.Pump)
// with a window of one and every line resolved on the spot: items are
// solved sequentially in the pump's reader, so the body is consumed at
// processing speed and the stream never runs more than the one solve
// its semaphore slot paid for. Per-item failures (bad JSON, bad
// instance, solver rejection) are reported on that item's line and the
// stream continues.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	wire.Pump(r.Context(), w, r.Body,
		wire.Stream{MaxLineBytes: s.cfg.MaxBodyBytes, MaxItems: s.cfg.MaxStreamItems, Window: 1},
		func(_ context.Context, idx int, line []byte) (StreamItem, func() StreamItem) {
			mStreamItem.Inc()
			req, err := DecodeItem(line, s.limits)
			if err != nil {
				return wire.Failed(idx, err.Error()), nil
			}
			return s.solveItem(idx, req), nil
		})
}
