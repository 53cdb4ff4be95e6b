package front

import (
	"context"
	"encoding/json"
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
	key, err := json.Marshal(req)
	if err != nil {
		return Item{Index: idx, Error: err.Error()}
	}
	// The shard sub-request wraps the item's canonical encoding in a
	// one-element clusterd batch; the key and the body share bytes.
	body := make([]byte, 0, len(key)+len(`{"requests":[]}`))
	body = append(body, `{"requests":[`...)
	body = append(body, key...)
	body = append(body, `]}`...)
	order := f.ring.Successors(key, nil)
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
	var sub BatchResponse
	if err := json.Unmarshal(reply.Body, &sub); err != nil || len(sub.Results) != 1 {
		return Item{}, wire.Reply{Kind: wire.ReplyUpstreamErr}
	}
	return sub.Results[0], reply
}
