package cluster

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
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

// outcome is one replica's classified reply, tagged with the backend
// that gave it.
type outcome struct {
	wire.Reply
	backendID int
}

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

// dispatchItem runs one item to completion: pick the least-loaded
// selectable replica, attempt (with hedging), and on backend failure
// re-dispatch to another member of the replica set. It gives up only
// on a deterministic item error or when ctx expires — mirroring
// sim.FlatOptions.Failures, where a task is lost solely when its whole
// replica set is dead.
func (c *Cluster) dispatchItem(ctx context.Context, idx int, req *serve.ScheduleRequest, set []int) Item {
	body, err := req.Body()
	if err != nil {
		return Item{Index: idx, Error: err.Error()}
	}
	mItems.Inc()
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
		}
		primary := c.pick(set, -1, time.Now())
		if primary == nil {
			// Whole replica set unavailable: wait for the earliest
			// breaker to half-open, then retry. A permanent loss
			// surfaces as ctx expiry here.
			if !wire.SleepCtx(ctx, c.pool.ReopenDelay(set, time.Now())) {
				return Item{Index: idx, Error: errNoBackend.Error() +
					": all of " + fmtSet(set) + " unavailable: " + ctx.Err().Error()}
			}
			continue
		}
		if attempt > 0 {
			mRedispatch.Inc()
		}
		out := c.runReplicas(ctx, idx, body, set, primary)
		switch out.Kind {
		case wire.ReplyOK:
			return Item{Index: idx, Response: json.RawMessage(out.Body)}
		case wire.ReplyItemErr:
			return Item{Index: idx, Error: out.ErrMsg}
		case wire.ReplyThrottled:
			mRetry429.Inc()
			if !wire.SleepCtx(ctx, wire.RetryDelay(out.RetryAfter, c.cfg.RetryAfterCap)) {
				return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
			}
		case wire.ReplyCancelled:
			return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
			// wire.ReplyUpstreamErr: loop re-dispatches.
		}
	}
}

// runReplicas performs one attempt of an item: the primary dispatch,
// plus up to MaxHedges duplicates fired after the quantile hedge
// delay. The first decisive outcome (success or deterministic item
// error) wins and cancels the duplicates via cctx; backend failures
// are decisive only once every launched replica has failed.
func (c *Cluster) runReplicas(ctx context.Context, idx int, body []byte, set []int, primary *wire.Upstream) outcome {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ch := make(chan outcome, 1+c.cfg.MaxHedges)
	go c.send(cctx, primary, idx, body, ch)
	outstanding := 1
	hedged := map[int]bool{}
	used := primary.ID

	var hedgeC <-chan time.Time
	hedgesLeft := 0
	if !c.cfg.DisableHedging && len(set) > 1 {
		hedgesLeft = c.cfg.MaxHedges
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	var last outcome
	for {
		select {
		case out := <-ch:
			outstanding--
			switch out.Kind {
			case wire.ReplyOK:
				c.backends[out.backendID].RecordSuccess()
				if hedged[out.backendID] {
					mHedgeWins.Inc()
				}
				return out
			case wire.ReplyItemErr:
				// The backend answered authoritatively; it is healthy
				// and the item is bad everywhere.
				c.backends[out.backendID].RecordSuccess()
				return out
			case wire.ReplyThrottled:
				last = out
			case wire.ReplyUpstreamErr:
				c.backends[out.backendID].RecordFailure(time.Now())
				if last.Kind != wire.ReplyThrottled {
					last = out
				}
			case wire.ReplyCancelled:
				// cctx is only ever done here because ctx is.
				return out
			}
			if outstanding == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if hedgesLeft > 0 {
				if hb := c.pick(set, used, time.Now()); hb != nil {
					hedged[hb.ID] = true
					hedgesLeft--
					outstanding++
					mHedges.Inc()
					go c.send(cctx, hb, idx, body, ch)
				}
			}
		case <-ctx.Done():
			return outcome{Reply: wire.Reply{Kind: wire.ReplyCancelled}}
		}
	}
}

// send posts one item to one backend's /v1/schedule and reports the
// classified reply; a 200's round trip feeds the hedge-delay quantile.
func (c *Cluster) send(ctx context.Context, b *wire.Upstream, idx int, body []byte, ch chan<- outcome) {
	mDispatches.Inc()
	start := time.Now()
	reply := b.Post(ctx, "/v1/schedule", ItemHeader, idx, body)
	if reply.Kind == wire.ReplyOK {
		c.lat.observe(time.Since(start))
	}
	ch <- outcome{Reply: reply, backendID: b.ID}
}

// pick returns the selectable replica-set member with the fewest
// in-flight dispatches (ties to the lowest id), skipping the exclude
// id; nil when every member's breaker is open.
func (c *Cluster) pick(set []int, exclude int, now time.Time) *wire.Upstream {
	var best *wire.Upstream
	for _, i := range set {
		b := c.backends[i]
		if b.ID == exclude || !b.Selectable(now) {
			continue
		}
		if best == nil || b.Inflight() < best.Inflight() {
			best = b
		}
	}
	return best
}

// hedgeDelay derives the duplicate-dispatch delay from the observed
// latency distribution: the configured quantile of recent successful
// dispatches, clamped to [HedgeMinDelay, HedgeMaxDelay].
func (c *Cluster) hedgeDelay() time.Duration {
	d := c.lat.quantile(c.cfg.HedgeQuantile)
	if d < c.cfg.HedgeMinDelay {
		d = c.cfg.HedgeMinDelay
	}
	if d > c.cfg.HedgeMaxDelay {
		d = c.cfg.HedgeMaxDelay
	}
	return d
}

// latencyWindow is a fixed-size ring of recent successful dispatch
// latencies feeding the hedge-delay quantile.
type latencyWindow struct {
	mu   sync.Mutex
	buf  []float64 // seconds
	next int
	full bool
}

func newLatencyWindow(size int) *latencyWindow {
	return &latencyWindow{buf: make([]float64, size)}
}

func (w *latencyWindow) observe(d time.Duration) {
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
// observations yet (the caller's MinDelay floor covers cold starts).
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

func fmtSet(set []int) string {
	parts := make([]string, len(set))
	for i, v := range set {
		parts[i] = strconv.Itoa(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
