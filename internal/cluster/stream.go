// Streaming dispatch: the open-system counterpart of /v1/batch, on the
// shared stream pump (wire.Pump). Each line is placed on a replica set
// the moment it arrives (online greedy, the streaming analogue of
// replicaSets' batch greedy) and dispatched concurrently; the pump
// emits one NDJSON result line per item in input order. Its window of
// Workers pending results is the backpressure: when it is full the
// reader stops consuming the request body, so a fast client is
// throttled to the pool's service rate by TCP flow control alone.

package cluster

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/wire"
)

// streamPlacer assigns replica sets to items as they arrive. For
// "none" and "group:k" it carries the running estimated load per
// choice, so the stream placement is the online greedy least-loaded
// rule — on identical input it matches replicaSets item for item,
// which the metamorphic stream-vs-batch tests pin down.
type streamPlacer struct {
	strat  strategy
	all    []int     // stratAll: the full backend set, shared by every item
	groups [][]int   // stratGroup: backend partition
	loads  []float64 // running estimated load per backend (none) or group
}

func (c *Cluster) newStreamPlacer(strat strategy) (*streamPlacer, error) {
	p := &streamPlacer{strat: strat}
	nb := len(c.backends)
	switch strat.kind {
	case stratAll:
		p.all = make([]int, nb)
		for i := range p.all {
			p.all[i] = i
		}
	case stratNone:
		p.loads = make([]float64, nb)
	case stratGroup:
		groups, err := placement.PartitionGroups(nb, strat.k)
		if err != nil {
			return nil, err
		}
		p.groups = groups
		p.loads = make([]float64, strat.k)
	}
	return p, nil
}

// place returns the replica set of the next item. Not safe for
// concurrent use; the stream reader calls it from one goroutine.
func (p *streamPlacer) place(req *serve.ScheduleRequest) []int {
	switch p.strat.kind {
	case stratNone:
		best := argminLoad(p.loads)
		p.loads[best] += itemEstimate(req)
		return []int{best}
	case stratGroup:
		g := argminLoad(p.loads)
		p.loads[g] += itemEstimate(req)
		return p.groups[g]
	default:
		return p.all
	}
}

// handleStream serves POST /v1/stream. The optional ?strategy= query
// parameter overrides the configured replication strategy for this
// stream (the streaming analogue of the batch placement override;
// explicit replica sets need the whole batch up front, so they have no
// streaming form).
func (c *Cluster) handleStream(w http.ResponseWriter, r *http.Request) {
	defer tStream.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	}
	strat := c.strat
	if qs := r.URL.Query().Get("strategy"); qs != "" {
		var err error
		if strat, err = parseStrategy(qs, len(c.backends)); err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	placer, err := c.newStreamPlacer(strat)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.StreamTimeout)
	defer cancel()

	// Items needing a backend are dispatched concurrently under the
	// pump's Workers-wide window; invalid ones resolve immediately.
	wire.Pump(ctx, w, r.Body,
		wire.Stream{MaxLineBytes: c.cfg.MaxBodyBytes, MaxItems: c.cfg.MaxStreamItems, Window: c.cfg.Workers},
		wire.Failed,
		func(ctx context.Context, idx int, line []byte) (Item, func() Item) {
			mStreamItems.Inc()
			// The pump reuses line; the copy is what gets forwarded, and
			// like a body wire.ReadBody made it is never pooled.
			req, err := serve.DecodeItem(bytes.Clone(line), c.limits)
			if err != nil {
				return wire.Failed(idx, err.Error()), nil
			}
			set := placer.place(req)
			return Item{}, func() Item { return c.dispatchItem(ctx, idx, req, set) }
		})
}
