package wire

import (
	"bytes"
	"context"
	"time"

	"repro/internal/obs"
)

// Route is a proxy tier's setting of the one dispatch loop: the paper's
// phase 2 — the first idle eligible replica among M_j runs the item —
// over the candidates the tier's phase 1 hands Dispatch (frontd's ring
// walk, clusterd's replica set). proxy.New completes it once from the
// tier's Policy; nothing in it is set per request.
type Route struct {
	// Pool holds the upstreams that candidate ids index.
	Pool *Pool
	// Path and ItemHeader shape the sub-request (Upstream.Post).
	Path, ItemHeader string
	// Sole: a copy posts a one-item batch, and a 200 carries one to
	// unwrap (SoleResult); otherwise a 200's body, less its newline, is
	// the item's response. Either way it is checked on receipt, and one
	// that is not valid JSON, or not one result, is the upstream's fault:
	// the item is tried elsewhere.
	Sole bool
	// Pick chooses one of the candidates at now; nil when none is
	// selectable. A non-empty shed refuses the item in those words, for
	// a tier that sheds at capacity instead of queueing.
	Pick func(set []int, now time.Time) (u *Upstream, shed string)
	// NoneLive words the loss of an item whose every candidate stayed
	// unselectable until ctx expired.
	NoneLive func(set []int) string
	// RetryAfterCap bounds how long a 429's Retry-After is honored.
	RetryAfterCap time.Duration
	// Hedge lets an attempt over two or more candidates send one
	// duplicate; nil: an item has one copy in flight at a time.
	Hedge Hedger

	// The tier's counters: Items counts Dispatch calls, Dispatches posts,
	// Retries429 waits on a 429, Shed refusals by Pick, Hedges and
	// HedgeWins duplicates sent and those that answered first, Rerouted
	// an item once, when first sent to another candidate than set[0]
	// (frontd: off its home shard), Redispatches every attempt after an
	// item's first trip round the loop; Inflight mirrors the posts
	// outstanding. nil: not kept (a tier that never sheds, or hedges).
	Items, Dispatches, Retries429, Shed, Hedges, HedgeWins *obs.Counter
	Rerouted, Redispatches                                 *obs.Counter
	Inflight                                               *obs.Gauge
}

var newline = []byte("\n")

// Hedger paces the duplicate of a slow attempt: replicate after a
// delay, first answer wins, the loser is cancelled (Wang, Joshi and
// Wornell, arXiv:1404.1328).
type Hedger interface {
	// Delay is how long an attempt waits on its first copy before it
	// sends the second.
	Delay() time.Duration
	// Observe is given the round trip of every 200.
	Observe(rtt time.Duration)
}

// Dispatch runs one work item to completion over its candidate set:
// pick, attempt, and on an upstream fault pick again — the breaker has
// moved, so the next pick walks past the failed candidate. It gives up
// only on a shed, on an answer that is the item's own fault, or when
// ctx is done; a set with nothing selectable waits out the earliest
// breaker window, so a permanent loss surfaces as ctx expiry — as
// sim.FlatOptions.Failures loses a task only with its whole replica
// set. body is what one copy posts.
func (r *Route) Dispatch(ctx context.Context, idx int, set []int, body []byte) Result {
	r.Items.Inc()
	moved := false
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return Failed(idx, "cancelled: "+ctx.Err().Error())
		}
		u, shed := r.Pick(set, time.Now())
		if shed != "" {
			r.Shed.Inc()
			return Failed(idx, shed)
		}
		if u == nil {
			if !SleepCtx(ctx, r.Pool.ReopenDelay(set, time.Now())) {
				return Failed(idx, r.NoneLive(set)+": "+ctx.Err().Error())
			}
			continue
		}
		if attempt > 0 && r.Redispatches != nil {
			r.Redispatches.Inc()
		}
		if !moved && u.ID != set[0] && r.Rerouted != nil {
			moved = true
			r.Rerouted.Inc()
		}
		res, reply := r.attempt(ctx, u, idx, set, body)
		switch reply.Kind {
		case ReplyOK:
			res.Index = idx
			return res
		case ReplyItemErr:
			// The upstream answered authoritatively: it is healthy and
			// the item is bad everywhere. This tier validated the item by
			// the same rules, so it is the rare limit mismatch.
			return Failed(idx, reply.ErrMsg)
		case ReplyThrottled:
			r.Retries429.Inc()
			SleepCtx(ctx, RetryDelay(reply.RetryAfter, r.RetryAfterCap))
		}
		// A fault picks again. So does a cancelled copy or a wait cut
		// short, and there the top of the loop finds ctx done.
	}
}

// post sends one copy to u and settles u's breaker on the answer: a
// well-formed 200 or the item's own error closes it, a fault — a
// malformed 200 among them — counts against it, a 429 and a cancelled
// copy say nothing — which is what keeps a hedge's
// cancelled loser from being recorded as a failure.
func (r *Route) post(ctx context.Context, u *Upstream, idx int, body []byte) (Result, Reply) {
	if r.Inflight != nil {
		r.Inflight.Inc()
		defer r.Inflight.Dec()
	}
	r.Dispatches.Inc()
	start := time.Now()
	reply := u.Post(ctx, r.Path, r.ItemHeader, idx, body)
	var res Result
	if reply.Kind == ReplyOK {
		if r.Hedge != nil {
			r.Hedge.Observe(time.Since(start))
		}
		var ok bool
		if r.Sole {
			res, ok = SoleResult(reply.Body.Bytes())
		} else {
			res, ok = received(bytes.TrimSuffix(reply.Body.Bytes(), newline))
		}
		// The result owns the reply it may alias, to the writer of the
		// answer (Results.Release, Pump); the malformed one is nobody's.
		res.body, reply.Body = reply.Body, Body{}
		if !ok {
			res.body.Release()
			res, reply = Result{}, Reply{Kind: ReplyUpstreamErr}
		}
	}
	switch reply.Kind {
	case ReplyOK, ReplyItemErr:
		u.RecordSuccess()
	case ReplyUpstreamErr:
		u.RecordFailure(time.Now())
	}
	return res, reply
}

// attempt is one try of an item, first copy to first. Whether it can
// hedge is read from the route and the set, never from a setting: with
// no Hedger or nowhere else to send a duplicate the one copy posts on
// the caller's goroutine. Otherwise a second copy goes to another
// candidate once Delay has passed; the first decisive answer (a 200 or
// the item's own error) wins and cancels the other through cctx, and a
// fault or a 429 is the attempt's answer only once every copy sent has
// failed, the 429 outranking the fault.
func (r *Route) attempt(ctx context.Context, first *Upstream, idx int, set []int, body []byte) (Result, Reply) {
	if r.Hedge == nil || len(set) < 2 {
		return r.post(ctx, first, idx, body)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res   Result
		reply Reply
		hedge bool
	}
	ch := make(chan outcome)
	send := func(u *Upstream, hedge bool) {
		res, reply := r.post(cctx, u, idx, body)
		select {
		case ch <- outcome{res, reply, hedge}:
		case <-cctx.Done(): // the attempt has returned: nobody is reading
		}
	}
	go send(first, false)
	outstanding := 1
	t := time.NewTimer(r.Hedge.Delay())
	defer t.Stop()
	hedgeC := t.C
	var last Reply
	for {
		select {
		case out := <-ch:
			outstanding--
			switch out.reply.Kind {
			case ReplyOK:
				if out.hedge {
					r.HedgeWins.Inc()
				}
				return out.res, out.reply
			case ReplyItemErr, ReplyCancelled:
				// cctx is only ever done here because ctx is.
				return out.res, out.reply
			case ReplyThrottled:
				last = out.reply
			case ReplyUpstreamErr:
				if last.Kind != ReplyThrottled {
					last = out.reply
				}
			}
			if outstanding == 0 {
				return Result{}, last
			}
		case <-hedgeC:
			hedgeC = nil // one hedge an attempt
			rest := make([]int, 0, len(set)-1)
			for _, id := range set {
				if id != first.ID {
					rest = append(rest, id)
				}
			}
			if u, _ := r.Pick(rest, time.Now()); u != nil {
				outstanding++
				r.Hedges.Inc()
				go send(u, true)
			}
		case <-ctx.Done():
			return Result{}, Reply{Kind: ReplyCancelled}
		}
	}
}
