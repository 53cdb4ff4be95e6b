package front

import (
	"repro/internal/cluster"
	"repro/internal/serve"
)

// Item is the outcome of one work item. It is clusterd's Item type
// verbatim: the front tier carries each shard's per-item response
// bytes untouched, so an item served through frontd is byte-identical
// to one served by the shard directly (the metamorphic transparency
// tests pin this down).
type Item = cluster.Item

// BatchRequest is frontd's /v1/batch body: the same "requests" array
// schedd and clusterd accept. The front tier owns placement — items
// are sharded by the hash ring — so it takes no placement override;
// replica-set policy lives one tier down, per shard.
type BatchRequest struct {
	Requests []serve.ScheduleRequest `json:"requests"`
}

// BatchResponse reports a whole batch, in input order, with the same
// envelope clusterd uses.
type BatchResponse = cluster.BatchResponse

// HealthResponse is frontd's /healthz payload: the tier view.
type HealthResponse struct {
	Status string `json:"status"`
	// Admitted is the current global admission level (work items in
	// flight across the tier) against AdmitMax.
	Admitted int64         `json:"admitted"`
	AdmitMax int           `json:"admit_max"`
	Shards   []ShardStatus `json:"shards"`
}

// ShardStatus is one shard's health row.
type ShardStatus struct {
	ID                  int    `json:"id"`
	URL                 string `json:"url"`
	State               string `json:"state"`
	Inflight            int64  `json:"inflight"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// decodeBatch decodes and fully validates a /v1/batch body
// (serve.DecodeBatch): non-empty bounded batch, every instance
// validated. Anything it accepts is safe to shard and dispatch (and
// stable under re-encoding — the fuzz target enforces that); accepted
// items are forwarded by sub-slice of body, which is why it comes from
// wire.ReadBody.
func (f *Front) decodeBatch(body []byte) (*BatchRequest, error) {
	var req BatchRequest
	if err := serve.DecodeBatch(body, f.limits, &req, &req.Requests, nil); err != nil {
		return nil, err
	}
	return &req, nil
}
