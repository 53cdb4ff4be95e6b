package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/wire"
)

// ScheduleRequest asks for one algorithm run on one instance.
type ScheduleRequest struct {
	// Algorithm is a name accepted by the algo registry (see
	// uncertsched -list).
	Algorithm string `json:"algorithm"`
	// Instance is the problem instance. Actual times default to the
	// estimates when omitted (the perfectly-estimated case).
	Instance *task.Instance `json:"instance"`
	// ExactLimit optionally overrides the server's exact-optimum task
	// cap for this request; it is clamped to the server's own limit.
	ExactLimit int `json:"exact_limit,omitempty"`
	// raw is the item's own bytes in the request it was scanned from
	// (DecodeItem, DecodeBatch): a sub-slice of a body wire.ReadBody
	// read, valid until its reader releases it (wire.Body). Nil for a
	// request built in code or decoded by DecodeStrict.
	raw []byte
}

// Body returns the item as the tier above forwards it: the bytes it
// was validated from where it came off the wire in the canonical
// spelling, its one canonical encoding otherwise. Nothing downstream
// tells the two apart — both decode to these fields.
func (req *ScheduleRequest) Body() ([]byte, error) {
	if req.raw != nil {
		return req.raw, nil
	}
	return json.Marshal(req)
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

// AppendJSON appends the response exactly as encoding/json marshals
// it, without reflection (wire.Encode's "appends itself" case): the
// answer is 3n numbers and n replica sets, and printing them is all an
// encode need cost. ok is false, and encoding/json renders or refuses
// the value, for what the appender does not print its way: a name that
// needs an escape, a number that is not finite, a missing placement or
// schedule.
func (r *ScheduleResponse) AppendJSON(dst []byte) (out []byte, ok bool) {
	if r.Placement == nil || r.Schedule == nil {
		return dst, false
	}
	if dst, ok = task.AppendString(append(dst, `{"algorithm":`...), r.Algorithm); !ok {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, `,"n":`...), int64(r.N), 10)
	dst = strconv.AppendInt(append(dst, `,"m":`...), int64(r.M), 10)
	if dst, ok = appendFloats(dst, `,"alpha":`, r.Alpha, `,"makespan":`, r.Makespan); !ok {
		return dst, false
	}
	dst = r.Placement.AppendJSON(append(dst, `,"placement":`...))
	dst = r.Schedule.AppendJSON(append(dst, `,"schedule":`...))
	if dst, ok = appendFloats(dst, `,"optimum":{"lower":`, r.Optimum.Lower, `,"upper":`, r.Optimum.Upper); !ok {
		return dst, false
	}
	dst = strconv.AppendBool(append(dst, `,"exact":`...), r.Optimum.Exact)
	if dst, ok = task.AppendString(append(dst, `,"method":`...), r.Optimum.Method); !ok {
		return dst, false
	}
	if dst, ok = appendFloats(dst, `},"ratio_lower":`, r.RatioLower, `,"ratio_upper":`, r.RatioUpper); !ok {
		return dst, false
	}
	if r.Guarantee != nil {
		if dst, ok = task.AppendFloat(append(dst, `,"guarantee":`...), *r.Guarantee); !ok {
			return dst, false
		}
	}
	if r.BoundOK != nil {
		dst = strconv.AppendBool(append(dst, `,"bound_ok":`...), *r.BoundOK)
	}
	return append(dst, '}'), true
}

// appendFloats appends two keyed numbers.
func appendFloats(dst []byte, k1 string, v1 float64, k2 string, v2 float64) ([]byte, bool) {
	dst, ok1 := task.AppendFloat(append(dst, k1...), v1)
	dst, ok2 := task.AppendFloat(append(dst, k2...), v2)
	return dst, ok1 && ok2
}

// BatchRequest bundles many schedule requests.
type BatchRequest struct {
	Requests []ScheduleRequest `json:"requests"`
}

// BatchItem is the outcome of one batch entry: exactly one of
// Response (a ScheduleResponse, encoded) and Error is set. Items appear
// in input order. It is the one result type of the three tiers.
type BatchItem = wire.Result

// BatchResponse reports a whole batch.
type BatchResponse = wire.Results

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string `json:"status"`
	Inflight      int64  `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`
	UptimeSeconds int64  `json:"uptime_seconds"`
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
		if err := lim.CheckItem(reqs[i].Algorithm, reqs[i].Instance); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// Which decoder took a work item, counted where the three tiers'
// decode calls meet and named for the codec (internal/wire) whose two
// paths they tell apart.
var (
	mScanned  = obs.GetCounter("wire.items_scanned")
	mFallback = obs.GetCounter("wire.items_fallback")
)

// fromWire is the request the scanner read, holding on to its bytes.
func fromWire(it wire.Item) ScheduleRequest {
	return ScheduleRequest{Algorithm: it.Algorithm, Instance: it.Instance, ExactLimit: it.ExactLimit, raw: it.Raw}
}

// DecodeItem decodes and fully validates one work item — a
// /v1/schedule body, or a stream line of any tier: the scanner where
// the spelling is canonical, DecodeStrict for everything else and for
// every error, then lim.CheckItem. A caller that forwards the item
// owns data and does not reuse it.
func DecodeItem(data []byte, lim wire.Limits) (*ScheduleRequest, error) {
	var req ScheduleRequest
	if it, ok := wire.ScanItem(data); ok {
		mScanned.Inc()
		req = fromWire(it)
	} else {
		mFallback.Inc()
		if err := wire.DecodeStrict(bytes.NewReader(data), &req); err != nil {
			return nil, err
		}
	}
	if err := lim.CheckItem(req.Algorithm, req.Instance); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeBatch decodes and validates (CheckBatch) the /v1/batch body of
// any tier into *reqs, as DecodeItem does an item. strict is the tier's
// own request value, the one holding *reqs: DecodeStrict fills it when
// the scanner bails, so an error names the tier's types as it always
// has. placement is wire.ScanBatch's, and points into strict: what a
// scan that then bailed left there, the strict decode of the same
// bytes writes again.
func DecodeBatch(data []byte, lim wire.Limits, strict any, reqs *[]ScheduleRequest, placement any) error {
	if items, ok := wire.ScanBatch(data, placement); ok {
		mScanned.Add(int64(len(items)))
		*reqs = make([]ScheduleRequest, len(items))
		for i, it := range items {
			(*reqs)[i] = fromWire(it)
		}
	} else {
		err := wire.DecodeStrict(bytes.NewReader(data), strict)
		mFallback.Add(int64(max(1, len(*reqs))))
		if err != nil {
			return err
		}
	}
	return CheckBatch(*reqs, lim)
}
