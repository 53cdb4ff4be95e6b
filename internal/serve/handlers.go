package serve

import (
	"context"
	"math"
	"net/http"
	"sync"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/wire"
)

// runnerPool recycles solver state — radix, queue, placement and
// scoring buffers, 318 KB of an n=2,000 request when built fresh —
// across the requests of a schedd. A response built on one is the
// runner's until its next run, so every taker encodes before it puts
// back; and puts back inline, not by defer, so the state a panic
// interrupted is dropped rather than handed to the next request.
var runnerPool = sync.Pool{New: func() any { return new(core.Runner) }}

// runSchedule is the core of /v1/schedule: resolve the algorithm, run
// and score it on the caller's solver state (core.Runner), and check
// the analytic guarantee. The solver state owns the response's
// placement and schedule.
func (s *Server) runSchedule(req *ScheduleRequest, r *core.Runner) (*ScheduleResponse, error) {
	a, err := algo.New(req.Algorithm)
	if err != nil {
		return nil, err
	}
	// Clients may only lower the exact-solve cap: raising it would let
	// one request buy an arbitrarily large branch-and-bound solve.
	exactLimit := s.cfg.ExactLimit
	if exactLimit <= 0 {
		exactLimit = 20 // opt.Estimate's own default, made explicit for clamping
	}
	if req.ExactLimit > 0 && req.ExactLimit < exactLimit {
		exactLimit = req.ExactLimit
	}
	out, err := r.RunAlgorithm(req.Instance, a, exactLimit)
	if err != nil {
		return nil, err
	}
	resp := &ScheduleResponse{
		Algorithm: out.Algorithm,
		N:         req.Instance.N(),
		M:         req.Instance.M,
		Alpha:     req.Instance.Alpha,
		Makespan:  out.Makespan,
		Placement: out.Placement,
		Schedule:  out.Schedule,
		Optimum: OptimumInfo{
			Lower:  out.Optimum.Lower,
			Upper:  out.Optimum.Upper,
			Exact:  out.Optimum.Exact,
			Method: out.Optimum.Method,
		},
		RatioLower: out.RatioLower,
		RatioUpper: out.RatioUpper,
	}
	if g := out.Guarantee; !math.IsNaN(g) {
		resp.Guarantee = &g
		ok := bounds.Holds(out.Makespan, g, out.Optimum.Upper)
		resp.BoundOK = &ok
	}
	return resp, nil
}

// solveItem is one batch entry or stream line: the validated request
// run on pooled solver state and the response encoded before the state
// goes back.
func (s *Server) solveItem(idx int, req *ScheduleRequest) BatchItem {
	r := runnerPool.Get().(*core.Runner)
	var item BatchItem
	if resp, err := s.runSchedule(req, r); err != nil {
		item = wire.Failed(idx, err.Error())
	} else {
		item = wire.Answer(idx, resp)
	}
	runnerPool.Put(r)
	return item
}

// RunBatch is the pure core of /v1/batch: every item goes through
// runSchedule under a bounded worker pool, results stay in input
// order, and the fan-out stops dispatching once ctx is done.
func (s *Server) RunBatch(ctx context.Context, req *BatchRequest, workers int) *BatchResponse {
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	return wire.RunBatch(ctx, len(req.Requests), workers, func(i int) BatchItem {
		mBatchItems.Inc()
		if err := ctx.Err(); err != nil {
			return wire.Failed(i, err.Error())
		}
		return s.solveItem(i, &req.Requests[i])
	})
}

// Both handlers release the body they read once the answer is written
// (defers run after it): the request aliases it until then, and schedd
// forwards nothing.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	body, err := wire.ReadBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	defer body.Release()
	var req *ScheduleRequest
	if err == nil {
		req, err = DecodeItem(body.Bytes(), s.limits)
	}
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	rn := runnerPool.Get().(*core.Runner)
	resp, err := s.runSchedule(req, rn)
	if err != nil {
		// The request was well-formed JSON but the solver pipeline
		// rejected it (unknown algorithm, k not dividing m, ...).
		runnerPool.Put(rn)
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
	runnerPool.Put(rn) // after the write: resp is rn's
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := wire.ReadBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	defer body.Release()
	var req BatchRequest
	if err == nil {
		err = DecodeBatch(body.Bytes(), s.limits, &req, &req.Requests, nil)
	}
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.RunBatch(r.Context(), &req, 0))
}
