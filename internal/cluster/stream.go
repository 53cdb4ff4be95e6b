// Streaming dispatch: the open-system counterpart of /v1/batch, on the
// shared stream pump (wire.Pump, which states the ordering and
// backpressure contract; the window is Workers). Each line is placed on
// a replica set the moment it arrives (online greedy; replicaSets runs
// the same placer over a whole batch) and dispatched concurrently.

package cluster

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/serve"
	"repro/internal/wire"
)

// streamPlacer assigns replica sets to items as they arrive, the one
// greedy placer of stream and batch alike. For "none" and "group:k" it
// carries the running estimated load per choice — the online greedy
// least-loaded rule, the semi-clairvoyant analogue of the paper's
// placements, using the only cost signal available before execution.
type streamPlacer struct {
	strat strategy
	all   []int     // stratAll: the full backend set, shared by every item
	loads []float64 // running estimated load per backend (none) or group
}

func (c *Cluster) newStreamPlacer(strat strategy) *streamPlacer {
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
		p.loads = make([]float64, len(strat.groups))
	}
	return p
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
		return p.strat.groups[g]
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
	placer := c.newStreamPlacer(strat)
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.StreamTimeout)
	defer cancel()

	// Items needing a backend are dispatched concurrently under the
	// pump's Workers-wide window; invalid ones resolve immediately.
	wire.Pump(ctx, w, r.Body,
		wire.Stream{MaxLineBytes: c.cfg.MaxBodyBytes, MaxItems: c.cfg.MaxStreamItems, Window: c.cfg.Workers},
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
