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

// dispatchItem runs one work item to completion on the shared loop
// (wire.Route.Dispatch): hash it to its home shard, forward it as a
// single-item clusterd batch, and on shard death walk the ring
// successors — the item is re-routed, not lost.
func (f *Front) dispatchItem(ctx context.Context, idx int, req *serve.ScheduleRequest) Item {
	raw, err := req.Body()
	if err != nil {
		return wire.Failed(idx, err.Error())
	}
	// The shard sub-request wraps the item's bytes in a one-element
	// clusterd batch: a slice of its own, never pooled (wire.ReadBody
	// says why).
	body := make([]byte, 0, len(raw)+len(`{"requests":[]}`))
	body = append(body, `{"requests":[`...)
	body = append(body, raw...)
	body = append(body, `]}`...)
	return f.route.Dispatch(ctx, idx, f.ring.successors(mix64(itemHash(req)), nil), body)
}

// pick returns the item's target shard: the first selectable shard on
// its ring walk; nil alone means every shard is dead. Capacity is
// different from death: when that shard is at its in-flight cap the
// item is shed at once (shed-before-queue), unless shedding is
// disabled, so a hot shard slows its own keys down without stealing
// capacity from the rest of the ring.
func (f *Front) pick(order []int, now time.Time) (*wire.Upstream, string) {
	for _, i := range order {
		sh := f.shards[i]
		if !sh.Selectable(now) {
			continue
		}
		if !f.cfg.DisableShedding && f.cfg.ShardInflight > 0 &&
			sh.Inflight() >= int64(f.cfg.ShardInflight) {
			return nil, "shed: shard " + strconv.Itoa(sh.ID) +
				" at in-flight cap; retry after " + f.retryAfterValue() + "s"
		}
		return sh.Upstream, ""
	}
	return nil, ""
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
