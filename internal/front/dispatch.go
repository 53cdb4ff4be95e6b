package front

import (
	"context"
	"math"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// ItemHeader carries the front-tier batch index of a dispatched item
// to the shard. Purely observational (the chaos tests use it to map
// sub-requests back to items); clusterd ignores unknown headers.
const ItemHeader = "X-Front-Item"

// dispatchItem runs one work item to completion: hash it to its home
// shard, forward it as a single-item clusterd batch, and on shard
// death walk the ring successors — the item is re-routed, not lost.
// Capacity is different from death: an item whose first live shard is
// at its in-flight cap is shed immediately (shed-before-queue), so a
// hot shard slows its own keys down without stealing capacity from
// the rest of the ring.
func (f *Front) dispatchItem(ctx context.Context, idx int, req *serve.ScheduleRequest) Item {
	raw, err := req.Body()
	if err != nil {
		return Item{Index: idx, Error: err.Error()}
	}
	// The shard sub-request wraps the item's bytes in a one-element
	// clusterd batch: a slice of its own, never pooled (wire.ReadBody
	// says why).
	body := make([]byte, 0, len(raw)+len(`{"requests":[]}`))
	body = append(body, `{"requests":[`...)
	body = append(body, raw...)
	body = append(body, `]}`...)
	order := f.ring.successors(mix64(itemHash(req)), nil)
	mItems.Inc()
	for {
		if ctx.Err() != nil {
			return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
		}
		s, shed := f.pick(order, time.Now())
		if shed {
			mShed.Inc()
			return Item{Index: idx, Error: "shed: shard " + strconv.Itoa(s.ID) +
				" at in-flight cap; retry after " + f.retryAfterValue() + "s"}
		}
		if s == nil {
			// Whole ring dead: wait for the earliest readmission window,
			// then retry. A permanent loss surfaces as ctx expiry here.
			if !wire.SleepCtx(ctx, f.pool.ReopenDelay(order, time.Now())) {
				return Item{Index: idx, Error: "front: no live shard: " + ctx.Err().Error()}
			}
			continue
		}
		if s.ID != order[0] {
			mRerouted.Inc()
		}
		item, reply := f.send(ctx, s, idx, body)
		switch reply.Kind {
		case wire.ReplyOK:
			s.RecordSuccess()
			item.Index = idx
			return item
		case wire.ReplyItemErr:
			// The shard answered authoritatively; it is healthy and the
			// item is bad everywhere. The front validated the item with
			// the same rules, so this is the rare limit mismatch.
			s.RecordSuccess()
			return Item{Index: idx, Error: reply.ErrMsg}
		case wire.ReplyThrottled:
			mRetry429.Inc()
			if !wire.SleepCtx(ctx, wire.RetryDelay(reply.RetryAfter, f.cfg.RetryAfterCap)) {
				return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
			}
		case wire.ReplyUpstreamErr:
			s.RecordFailure(time.Now())
			// Loop: the next pick walks past the (possibly now-dead)
			// shard to its ring successor.
		case wire.ReplyCancelled:
			return Item{Index: idx, Error: "cancelled: " + ctx.Err().Error()}
		}
	}
}

// pick returns the item's target shard: the first selectable shard on
// its ring walk. When that shard is at its in-flight cap the item is
// shed (shed=true with the saturated shard), unless shedding is
// disabled. nil with shed=false means every shard is dead.
func (f *Front) pick(order []int, now time.Time) (s *shard, shed bool) {
	for _, i := range order {
		sh := f.shards[i]
		if !sh.Selectable(now) {
			continue
		}
		if !f.cfg.DisableShedding && f.cfg.ShardInflight > 0 &&
			sh.Inflight() >= int64(f.cfg.ShardInflight) {
			return sh, true
		}
		return sh, false
	}
	return nil, false
}

// send posts one single-item sub-batch to one shard's /v1/batch. On a
// 200 it unwraps the one result the sub-batch carries; a malformed
// success body is a shard fault, not an item fault, so it is
// reclassified for the caller to try elsewhere.
func (f *Front) send(ctx context.Context, s *shard, idx int, body []byte) (Item, wire.Reply) {
	gShardTotal.Inc()
	defer gShardTotal.Dec()
	mDispatches.Inc()
	reply := s.Post(ctx, "/v1/batch", ItemHeader, idx, body)
	if reply.Kind != wire.ReplyOK {
		return Item{}, reply
	}
	item, ok := wire.SoleResult(reply.Body)
	if !ok {
		return Item{}, wire.Reply{Kind: wire.ReplyUpstreamErr}
	}
	return item, reply
}

// itemHash is the ring key of a work item: FNV-1a, a word a step, over
// what the item decodes to — the algorithm, m, α, each task's three
// floats by bit pattern, the exact limit. Identical items share a shard
// however they were spelt (whitespace, key order, 1.50 for 1.5, actuals
// omitted or equal to the estimates), as when the key was the item's
// canonical JSON.
func itemHash(req *serve.ScheduleRequest) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(req.Algorithm); i++ {
		h = (h ^ uint64(req.Algorithm[i])) * prime64
	}
	h = (h ^ uint64(req.ExactLimit)) * prime64
	in := req.Instance
	if in == nil {
		return h // RunBatch on an unvalidated item: the shard words the refusal
	}
	h = (h ^ uint64(in.M)) * prime64
	h = (h ^ math.Float64bits(in.Alpha)) * prime64
	for _, t := range in.Tasks {
		h = (h ^ math.Float64bits(t.Estimate)) * prime64
		h = (h ^ math.Float64bits(t.Actual)) * prime64
		h = (h ^ math.Float64bits(t.Size)) * prime64
	}
	return h
}
