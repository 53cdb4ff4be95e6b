package serve

import (
	"context"
	"net/http"

	"repro/internal/algo"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/wire"
)

// boundTol absorbs floating-point rounding in the guarantee check.
const boundTol = 1e-9

// RunSchedule is the pure core of /v1/schedule: resolve the
// algorithm, execute both phases, score against the optimum bracket,
// and check the analytic guarantee. The HTTP handler is a thin wrapper
// so tests (and the batch fan-out) call exactly the code the endpoint
// serves.
func (s *Server) RunSchedule(req *ScheduleRequest) (*ScheduleResponse, error) {
	a, err := algo.New(req.Algorithm)
	if err != nil {
		return nil, err
	}
	res, err := algo.Execute(req.Instance, a)
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
	optimum := opt.Estimate(req.Instance.Actuals(), req.Instance.M, exactLimit)
	resp := &ScheduleResponse{
		Algorithm: res.Algorithm,
		N:         req.Instance.N(),
		M:         req.Instance.M,
		Alpha:     req.Instance.Alpha,
		Makespan:  res.Makespan,
		Placement: res.Placement,
		Schedule:  res.Schedule,
		Optimum: OptimumInfo{
			Lower:  optimum.Lower,
			Upper:  optimum.Upper,
			Exact:  optimum.Exact,
			Method: optimum.Method,
		},
	}
	if optimum.Upper > 0 {
		resp.RatioLower = res.Makespan / optimum.Upper
	}
	if optimum.Lower > 0 {
		resp.RatioUpper = res.Makespan / optimum.Lower
	}
	if g, ok := guaranteeFor(req.Algorithm, req.Instance.M, req.Instance.Alpha); ok {
		resp.Guarantee = &g
		// makespan > g·Upper certifies a violation (C* ≤ Upper); the
		// tolerance absorbs rounding on the boundary.
		ok := res.Makespan <= g*optimum.Upper*(1+boundTol)
		resp.BoundOK = &ok
	}
	return resp, nil
}

// RunSimulate is the pure core of /v1/simulate: a traced
// semi-clairvoyant replay, with the flat event trace regrouped into
// per-machine timelines.
func (s *Server) RunSimulate(req *SimulateRequest) (*SimulateResponse, error) {
	a, err := algo.New(req.Algorithm)
	if err != nil {
		return nil, err
	}
	p, err := a.Place(req.Instance)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(req.Instance); err != nil {
		return nil, err
	}
	// The same engine, order and shard layout as RunSchedule's
	// algo.Execute, so the two endpoints agree bit for bit.
	res, err := sim.RunFlatSharded(req.Instance, p, a.Order(req.Instance), sim.FlatOptions{Trace: true}, 1)
	if err != nil {
		return nil, err
	}
	if err := res.Schedule.Verify(req.Instance, p); err != nil {
		return nil, err
	}
	machines := make([]MachineTrace, req.Instance.M)
	for i := range machines {
		machines[i].Machine = i
	}
	for _, ev := range res.Trace {
		machines[ev.Machine].Events = append(machines[ev.Machine].Events,
			TraceEvent{Time: ev.Time, Task: ev.Task, Kind: ev.Kind})
	}
	return &SimulateResponse{
		Algorithm: a.Name(),
		Makespan:  res.Schedule.Makespan(),
		Placement: p,
		Schedule:  res.Schedule,
		Machines:  machines,
	}, nil
}

// RunBatch is the pure core of /v1/batch: every item goes through
// RunSchedule under a bounded worker pool, results stay in input
// order, and the fan-out stops dispatching once ctx is done.
func (s *Server) RunBatch(ctx context.Context, req *BatchRequest, workers int) *BatchResponse {
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	type itemOut struct {
		done bool
		resp *ScheduleResponse
		err  error
	}
	outs, ctxErr := par.MapCtx(ctx, len(req.Requests), workers, func(i int) itemOut {
		mBatchItems.Inc()
		if ctx.Err() != nil {
			return itemOut{done: true, err: ctx.Err()}
		}
		resp, err := s.RunSchedule(&req.Requests[i])
		return itemOut{done: true, resp: resp, err: err}
	})
	resp := &BatchResponse{Results: make([]BatchItem, len(outs))}
	for i, out := range outs {
		item := BatchItem{Index: i}
		switch {
		case !out.done:
			// Never dispatched: the context expired first.
			if ctxErr == nil {
				ctxErr = context.DeadlineExceeded
			}
			item.Error = "cancelled: " + ctxErr.Error()
		case out.err != nil:
			item.Error = out.err.Error()
		default:
			item.Response = out.resp
		}
		resp.Results[i] = item
	}
	return resp
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeScheduleRequest(r.Body)
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	resp, err := s.RunSchedule(req)
	if err != nil {
		// The request was well-formed JSON but the solver pipeline
		// rejected it (unknown algorithm, k not dividing m, ...).
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeSimulateRequest(r.Body)
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	resp, err := s.RunSimulate(req)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeBatchRequest(r.Body)
	if err != nil {
		wire.BadRequest(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.RunBatch(r.Context(), req, 0))
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, AlgorithmsResponse{Algorithms: algo.Names()})
}
