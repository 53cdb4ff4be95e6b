package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ItemHeader carries the batch index of a dispatched item to the
// backend. Purely observational (chaos tests use it to count
// executions per item); schedd ignores unknown headers.
const ItemHeader = "X-Cluster-Item"

// RunBatch dispatches every item of a validated batch across the
// backend pool and returns the results in input order. Items are
// fanned out under wire.RunBatch; each item independently walks its
// replica set with hedging, breaker checks, and re-dispatch until it
// succeeds, deterministically fails, or ctx expires.
func (c *Cluster) RunBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	sets, err := c.replicaSets(req)
	if err != nil {
		return nil, err
	}
	return wire.RunBatch(ctx, len(req.Requests), c.cfg.Workers, func(i int) Item {
		return c.dispatchItem(ctx, i, &req.Requests[i], sets[i])
	}), nil
}

// dispatchItem runs one item to completion on the shared loop
// (wire.Route.Dispatch) over its replica set, posting the item's own
// bytes.
func (c *Cluster) dispatchItem(ctx context.Context, idx int, req *serve.ScheduleRequest, set []int) Item {
	body, err := req.Body()
	if err != nil {
		return wire.Failed(idx, err.Error())
	}
	return c.route.Dispatch(ctx, idx, set, body)
}

// pick returns the selectable replica-set member with the fewest
// in-flight dispatches (ties to the lowest id); nil when every
// member's breaker is open. It never sheds: a busy backend queues.
func (c *Cluster) pick(set []int, now time.Time) (*wire.Upstream, string) {
	var best *wire.Upstream
	for _, i := range set {
		b := c.backends[i]
		if !b.Selectable(now) {
			continue
		}
		if best == nil || b.Inflight() < best.Inflight() {
			best = b
		}
	}
	return best, ""
}

// noneLive words the loss of an item whose whole replica set stayed
// unavailable to the deadline — the networked ErrUnsurvivable.
func noneLive(set []int) string {
	return "cluster: no live replica: all of " + fmt.Sprint(set) + " unavailable"
}

// latencyWindow is a fixed-size ring of recent successful dispatch
// latencies, and the cluster's wire.Hedger: the duplicate-dispatch
// delay is the window's q-quantile clamped to [floor, ceil].
type latencyWindow struct {
	q           float64
	floor, ceil time.Duration

	mu   sync.Mutex
	buf  []float64 // seconds
	next int
	full bool
}

func newLatencyWindow(size int, cfg Config) *latencyWindow {
	return &latencyWindow{q: cfg.HedgeQuantile, floor: cfg.HedgeMinDelay, ceil: cfg.HedgeMaxDelay, buf: make([]float64, size)}
}

// Delay is the hedge delay; the floor covers a cold start (no
// observations yet).
func (w *latencyWindow) Delay() time.Duration {
	return min(max(w.quantile(w.q), w.floor), w.ceil)
}

func (w *latencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.next] = d.Seconds()
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// quantile returns the q-quantile of the window, or 0 with no
// observations yet.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	sorted := make([]float64, n)
	copy(sorted, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(sorted)
	return time.Duration(stats.Quantile(sorted, q) * float64(time.Second))
}
