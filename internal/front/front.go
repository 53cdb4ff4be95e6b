// Package front is the front door of the serving stack (frontd →
// clusterd → schedd): the proxy tier (internal/proxy) under the policy
// that treats whole clusterd instances as independent replica groups —
// the `group:k` topology lifted one level — and consistent-hash-shards
// work items across them.
//
// Three mechanisms make the tier hold up under sustained load:
//
//   - phase 1, a stable hash ring with virtual nodes (see Ring), gives
//     every item a home shard and a successor walk from the shard list
//     alone, so identical frontd replicas agree with no coordination
//     (hence a constant vnode count: another would split the key space);
//   - admission control sheds before it queues: a global cap bounds the
//     items in flight across the tier, a per-shard cap each shard's
//     share, and work beyond either is rejected at once with 429 +
//     Retry-After (batch) or a per-item shed error (stream);
//   - phase 2 sends an item to the first live shard of its walk, so a
//     dead shard's work re-routes to its ring successors — latency
//     degrades, no item is lost — and /healthz probes readmit it.
//
// Observability: front.shed counts every rejected item, front.rerouted
// every item moved off its home shard, front.shard_inflight (and the
// per-shard front.shard.<id>.inflight gauges) the tier's current
// occupancy — the admission property tests pin these to zero after
// drain.
package front

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Front-tier metrics. Counters are monotone; gauges mirror live
// occupancy and drain back to zero with the traffic.
var (
	mItems       = obs.GetCounter("front.items_total")
	mDispatches  = obs.GetCounter("front.dispatches_total")
	mShed        = obs.GetCounter("front.shed")
	mRerouted    = obs.GetCounter("front.rerouted")
	mRetry429    = obs.GetCounter("front.retries_429")
	mShardDeaths = obs.GetCounter("front.shard_deaths")
	mDials       = obs.GetCounter("front.shard_dials")
	mStreamItems = obs.GetCounter("front.stream_items")
	gInflight    = obs.GetGauge("front.inflight")
	gShardTotal  = obs.GetGauge("front.shard_inflight")
	tBatch       = obs.GetTimer("front.batch")
	tStream      = obs.GetTimer("front.stream")
)

// ItemHeader carries the front-tier batch index of a dispatched item
// to the shard. Purely observational (the chaos tests use it to map
// sub-requests back to items); clusterd ignores unknown headers.
const ItemHeader = "X-Front-Item"

// vnodes is the virtual-node count per shard on the hash ring: smooth
// enough at O(shards·vnodes·log) ring-build cost, and the same in every
// frontd, so every replica places every key alike.
const vnodes = 64

// maxShards bounds the shard list; the ring's successor walk uses a
// 64-bit shard mask, and a front tier wider than this wants a second
// front layer, not a bigger ring.
const maxShards = 64

// Config parameterizes the front tier. The zero value of every field
// except Shards selects the documented default.
type Config struct {
	// Shards lists the clusterd base URLs (e.g. "http://10.0.1.7:9090")
	// forming the tier. At least one and at most 64 are required; the
	// ring is deterministic given this list.
	Shards []string
	// AdmitMax is the global admission cap: the maximum work items in
	// flight across the whole tier. Items beyond it are shed with 429 +
	// Retry-After instead of queueing. Default: 1024.
	AdmitMax int
	// ShardInflight caps one shard's in-flight items. An item whose
	// first live shard is at its cap is shed (capacity is per-shard;
	// only death re-routes). Default (0 or negative): 256; only
	// DisableShedding turns the per-shard cap off.
	ShardInflight int
	// DisableShedding turns both admission caps off; every valid item
	// is dispatched. The metamorphic transparency tests rely on this
	// mode adding no observable behavior over a single shard.
	DisableShedding bool
	// RetryAfterHint is the Retry-After delay advertised on shed
	// responses. Default: 1s.
	RetryAfterHint time.Duration
	// Tier holds the settings every proxy tier shares; its Upstream
	// breaker marks a shard dead.
	Tier proxy.Config
	// Transport overrides the HTTP transport (tests inject failure modes
	// here). Default: the pool's own, keeping its connections (wire.NewPool).
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.AdmitMax <= 0 {
		c.AdmitMax = 1024
	}
	if c.DisableShedding {
		c.ShardInflight = 0
	} else if c.ShardInflight <= 0 {
		c.ShardInflight = 256
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	return c
}

// New validates the configuration (shard list and ring shape) and
// returns the front tier. Shard probing starts only with Start.
func New(cfg Config) (*proxy.Tier, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("front: no shards configured")
	}
	if len(cfg.Shards) > maxShards {
		return nil, errors.New("front: more than 64 shards; add a second front tier instead")
	}
	ring, err := NewRing(cfg.Shards, vnodes)
	if err != nil {
		return nil, err
	}
	walk := proxy.Placer(func(_ int, req *serve.ScheduleRequest) []int {
		return ring.successors(mix64(itemHash(req)), nil)
	})
	retryAfter := retryAfterValue(cfg.RetryAfterHint)
	p := proxy.Policy{
		Place: func(*proxy.PlacementSpec, int) (proxy.Placer, error) { return walk, nil },
		Pick:  pick(int64(cfg.ShardInflight), retryAfter),
		// A one-item sub-batch to the shard, never hedged: a shard
		// hedges among its own backends.
		Route: wire.Route{
			Path: "/v1/batch", ItemHeader: ItemHeader, Sole: true,
			NoneLive: func([]int) string { return "front: no live shard" },
			Items:    mItems, Dispatches: mDispatches, Retries429: mRetry429,
			Shed: mShed, Rerouted: mRerouted, Inflight: gShardTotal,
		},
		AdmitMax: cfg.AdmitMax, RetryAfter: retryAfter,
		Name: "front",
		// A clusterd shard is live, dead, or probing; the mechanics are
		// wire.Upstream's breaker, the same clusterd runs one layer down.
		Upstreams: wire.UpstreamNames{
			GaugePrefix: "front.shard", StateGauge: "dead",
			States: [3]string{"live", "dead", "probing"},
			Opens:  mShardDeaths, Dials: mDials,
		},
		Shards:      true,
		StreamItems: mStreamItems, Batch: tBatch, Stream: tStream,
	}
	if !cfg.DisableShedding {
		p.Admit = wire.NewLevel(cfg.AdmitMax, gInflight)
	}
	return proxy.New(cfg.Tier, cfg.Shards, cfg.Transport, p), nil
}

// pick is the front's phase 2: the first selectable shard on the
// item's ring walk; nil alone means every shard is dead. Capacity is
// different from death: when that shard is at its in-flight cap (0: no
// cap) the item is shed at once, shed before queue, so a hot shard
// slows its own keys down without stealing capacity from the rest of
// the ring.
func pick(shardCap int64, retryAfter string) func([]*wire.Upstream, []int, time.Time) (*wire.Upstream, string) {
	return func(shards []*wire.Upstream, order []int, now time.Time) (*wire.Upstream, string) {
		for _, i := range order {
			sh := shards[i]
			if !sh.Selectable(now) {
				continue
			}
			if shardCap > 0 && sh.Inflight() >= shardCap {
				return nil, "shed: shard " + strconv.Itoa(sh.ID) +
					" at in-flight cap; retry after " + retryAfter + "s"
			}
			return sh, ""
		}
		return nil, ""
	}
}

// retryAfterValue renders the shed hint as whole seconds (minimum 1,
// the smallest honest Retry-After).
func retryAfterValue(hint time.Duration) string {
	return strconv.Itoa(max(1, int(hint/time.Second)))
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
