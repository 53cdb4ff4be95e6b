package cluster

import (
	"errors"
	"fmt"

	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/wire"
)

// BatchRequest is clusterd's /v1/batch body. It is a strict superset
// of schedd's: the same "requests" array, plus an optional "placement"
// override — so any payload schedd accepts, clusterd accepts too (the
// byte-identity metamorphic tests depend on this).
type BatchRequest struct {
	Requests []serve.ScheduleRequest `json:"requests"`
	// Placement optionally overrides the cluster's configured
	// replication strategy for this batch.
	Placement *PlacementSpec `json:"placement,omitempty"`
}

// PlacementSpec selects the phase-1 replica sets for a batch. Exactly
// one of Strategy and Replicas must be set.
type PlacementSpec struct {
	// Strategy is "none", "all", or "group:k" (see Config.Strategy).
	Strategy string `json:"strategy,omitempty"`
	// Replicas gives explicit replica sets: Replicas[i] lists the
	// backend indices allowed to run item i, sorted ascending without
	// duplicates — the same structural rules placement.CheckSets
	// enforces for machines.
	Replicas [][]int `json:"replicas,omitempty"`
}

// Item is the outcome of one batch entry, schedd's BatchItem. Response
// carries the backend's /v1/schedule body, checked on receipt and
// copied at write, so a proxied item is byte-identical to a directly
// served one.
type Item = wire.Result

// BatchResponse reports a whole batch, in input order.
type BatchResponse = wire.Results

// HealthResponse is clusterd's /healthz payload: the pool view.
type HealthResponse struct {
	Status   string          `json:"status"`
	Backends []BackendStatus `json:"backends"`
}

// BackendStatus is one backend's health row.
type BackendStatus struct {
	ID                  int    `json:"id"`
	URL                 string `json:"url"`
	Breaker             string `json:"breaker"`
	Inflight            int64  `json:"inflight"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// decodeBatch decodes and fully validates a /v1/batch body
// (serve.DecodeBatch): non-empty bounded batch, every instance
// validated, and any placement override structurally checked against
// the backend count. Anything it accepts is safe to dispatch (and
// stable under re-encoding — the fuzz target enforces that); accepted
// items are forwarded by sub-slice of body, which is why it comes from
// wire.ReadBody.
func (c *Cluster) decodeBatch(body []byte) (*BatchRequest, error) {
	var req BatchRequest
	if err := serve.DecodeBatch(body, c.limits, &req, &req.Requests, &req.Placement); err != nil {
		return nil, err
	}
	if req.Placement != nil {
		if err := c.validatePlacementSpec(req.Placement, len(req.Requests)); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

func (c *Cluster) validatePlacementSpec(spec *PlacementSpec, n int) error {
	switch {
	case spec.Strategy != "" && spec.Replicas != nil:
		return errors.New("placement: strategy and replicas are mutually exclusive")
	case spec.Strategy != "":
		_, err := parseStrategy(spec.Strategy, len(c.backends))
		return err
	case spec.Replicas != nil:
		if len(spec.Replicas) != n {
			return fmt.Errorf("placement: %d replica sets for %d items", len(spec.Replicas), n)
		}
		return placement.CheckSets(spec.Replicas, len(c.backends))
	default:
		return errors.New("placement: empty spec (set strategy or replicas)")
	}
}
