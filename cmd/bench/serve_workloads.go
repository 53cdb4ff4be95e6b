package main

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/opt"
)

// servePlan is what tells the serving workloads apart.
type servePlan struct {
	name      string
	load      func(*sizes) serveLoad
	alternate bool // odd requests go to /v1/stream
	open      bool // measured by the open loop
}

var (
	planSmall  = servePlan{name: "serve-small", load: func(z *sizes) serveLoad { return z.small }}
	planFanout = servePlan{name: "serve-fanout", load: func(z *sizes) serveLoad { return z.fanout }, alternate: true}
	planSolve  = servePlan{name: "serve-solve", load: func(z *sizes) serveLoad { return z.solve }}
	planDual   = servePlan{name: "serve-dual", load: func(z *sizes) serveLoad { return z.dual }}
	planOpen   = servePlan{name: "serve-open", load: func(z *sizes) serveLoad { return z.small }, open: true}
)

// servingRun is a serving workload's entry in the workload table.
func servingRun(plan servePlan) func(context.Context, runConfig) (*result, error) {
	return func(ctx context.Context, cfg runConfig) (*result, error) {
		return runServing(ctx, cfg, plan)
	}
}

// The limits a serve-open rate must meet to pass.
const (
	openP99LimitMS   = 25.0
	openFailLimit    = 0.01
	openBacklogLimit = 50 * time.Millisecond // of arrivals at the rate
	// A generator that wakes its senders later than this at the 99th
	// percentile has measured itself: the ladder is then no measurement
	// of the system.
	openLagLimitMS = 1.0
)

// runServing is the frame the serving workloads share: rounds of a
// set-up (boot the tiers, warm them with a fixed number of requests)
// and a measured segment on the stack just booted.
func runServing(ctx context.Context, cfg runConfig, plan servePlan) (*result, error) {
	res := newResult()
	s := &serving{cfg: cfg, name: plan.name, res: res, load: plan.load(&cfg.sizes)}
	if cfg.trace {
		s.rec = newRecorder()
	}
	var err error
	if plan.open {
		err = s.measureOpen(ctx)
	} else {
		err = s.measureClosed(ctx, plan.alternate)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", plan.name, err)
	}
	res.metrics["setup_s"] = median(s.setups)
	res.samples["setup_s"] = len(s.setups)
	res.metrics["fail_share"] = ratio(float64(res.failed), float64(res.attempted))
	if cfg.trace && cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, s.rec.spans); err != nil {
			return nil, fmt.Errorf("%s: write spans: %w", plan.name, err)
		}
	}
	return res, nil
}

// requests returns the generator of the workload's requests; offset
// moves the client coordinate, which keeps the warm-up's inputs apart
// from the window's.
func (s *serving) requests(offset int, alternate bool) reqGen {
	return func(client, i int) (*request, error) {
		return genRequest(streamSeed(s.cfg.seed, s.name, offset+client, i), s.load.shape, s.load.items, alternate && i%2 == 1)
	}
}

// round sets the system up and runs measure on it: an empty memo,
// fresh tiers on fresh listeners, and a closed-loop warm-up, which
// fills connection pools and the hedging delay's latency window. The
// warm-up is a fixed number of requests, not a fixed time, and the
// same requests in every round, so the set-up time is the same work
// measured again and a slower system shows a longer set-up.
func (s *serving) round(ctx context.Context, alternate bool, measure func() (*segStats, error)) (*segStats, error) {
	start := time.Now()
	opt.ResetCache()
	st, err := bootStack(ctx, s.rec, s.cfg.clients)
	if err != nil {
		return nil, err
	}
	defer st.close()
	s.st = st
	if _, err := s.closedLoop(ctx, 0, s.load.warm, s.requests(warmClient, alternate), make([]int, s.cfg.clients), false); err != nil {
		return nil, err
	}
	s.setups = append(s.setups, time.Since(start).Seconds())
	return measure()
}

// share is the part of the window each of n rounds measures for.
func (s *serving) share(n int) time.Duration {
	return time.Duration(s.cfg.seconds * float64(time.Second) / float64(n))
}

// measureClosed runs the closed-loop rounds. In a traced run every
// other round is left untraced, to hold the traced rate against.
func (s *serving) measureClosed(ctx context.Context, alternate bool) error {
	next := make([]int, s.cfg.clients)
	g, untraced := &segStats{}, &segStats{}
	for r := 0; r < s.cfg.rounds; r++ {
		traced := s.cfg.tracedRound(r)
		seg, err := s.round(ctx, alternate, func() (*segStats, error) {
			return s.closedLoop(ctx, s.share(s.cfg.rounds), 0, s.requests(0, alternate), next, traced)
		})
		if err != nil {
			return err
		}
		if s.cfg.trace && !traced {
			untraced.add(seg)
		} else {
			g.add(seg)
		}
	}

	m := s.res.metrics
	s.setEndToEnd(g)
	m["fanout.batch.items_per_s"] = g.endpointRate(0, s.cfg.clients)
	m["fanout.stream.items_per_s"] = g.endpointRate(1, s.cfg.clients)
	if s.cfg.trace {
		m["trace.overhead_share"] = 1 - ratio(g.tasksPerS(), untraced.tasksPerS())
		return s.layerMetrics(g)
	}
	return nil
}

// setEndToEnd fills the metrics every serving workload reads off its
// measured segments the same way.
func (s *serving) setEndToEnd(g *segStats) {
	m := s.res.metrics
	m["tasks_per_s"] = g.tasksPerS()
	m["items_per_s"] = ratio(float64(g.okItems), g.wall.Seconds())
	s.res.samples["items_per_s"], s.res.samples["tasks_per_s"] = g.okItems, len(g.slices)
	m["ops"], m["window_s"] = float64(g.requests), g.wall.Seconds()
	s.res.setLatency(g.latMS)
	m["lat_p50_ms"] = g.p50MS()
	s.res.setMemory(g.used, g.items)
	slices.Sort(g.gapMS)
	m["driver.lag_p99_ms"] = quantile(g.gapMS, 0.99)
}

// measureOpen runs the open-loop rounds. Untraced, every round is
// spent at the fixed rate, the ladder's lowest. A traced
// run climbs the rate ladder, untraced, a round a rate on a stack of
// its own (the first failing rate ends the climb), and spends one
// last round, traced, at the fixed rate.
func (s *serving) measureOpen(ctx context.Context) error {
	m, z := s.res.metrics, s.cfg.sizes
	fixedRate := z.openRates[0]
	// leg is one round at one rate; stream keeps its requests apart from
	// every other leg's.
	leg := func(share time.Duration, stream int, rate float64, traced bool) (*segStats, error) {
		return s.round(ctx, false, func() (*segStats, error) {
			return s.openLoop(ctx, share, stream, rate, traced)
		})
	}
	g := &segStats{}
	var ladderCPUPerReq float64
	if !s.cfg.trace {
		for r := 0; r < s.cfg.rounds; r++ {
			seg, err := leg(s.share(s.cfg.rounds), r, fixedRate, false)
			if err != nil {
				return err
			}
			g.add(seg)
		}
	} else {
		share := s.share(len(z.openRates) + 1)
		var lags []float64
		failed := false
		for ri, rate := range z.openRates {
			name := "rate.r" + strconv.Itoa(int(rate)) + ".lat_p99_ms"
			if failed {
				m[name] = 0 // not run: above the first failing rate
				continue
			}
			seg, err := leg(share, ri, rate, false)
			if err != nil {
				return err
			}
			slices.Sort(seg.latMS)
			m[name] = quantile(seg.latMS, 0.99)
			s.res.samples[name] = len(seg.latMS)
			failShare := ratio(float64(seg.failed), float64(seg.items))
			if m[name] > openP99LimitMS || failShare > openFailLimit || float64(seg.backlog) > rate*openBacklogLimit.Seconds() {
				failed = true
				continue
			}
			m["max_ok_rate_rps"] = rate
			lags = append(lags, seg.gapMS...)
			if ri == 0 {
				ladderCPUPerReq = seg.cpuPerItem()
			}
		}
		slices.Sort(lags)
		if lag := quantile(lags, 0.99); lag > openLagLimitMS {
			s.res.invalidate("driver.lag_p99_ms %.3g > %g below the first failing rate: the generator ran late", lag, openLagLimitMS)
		}
		seg, err := leg(share, len(z.openRates), fixedRate, true)
		if err != nil {
			return err
		}
		g.add(seg)
	}

	s.setEndToEnd(g)
	m["workload.gen_ms"] = ratio(float64(g.gen)/float64(time.Millisecond), float64(g.requests))
	m["driver.wait_us"] = mean(g.waitUS)
	if float64(g.backlog) > fixedRate*openBacklogLimit.Seconds() {
		s.res.invalidate("%d requests were due and unsent when a window ended: the system does not sustain %g req/s", g.backlog, fixedRate)
	}
	if s.cfg.trace {
		// At a fixed rate the throughput cannot show the overhead; the
		// processor time a request costs does.
		if ladderCPUPerReq > 0 {
			m["trace.overhead_share"] = g.cpuPerItem()/ladderCPUPerReq - 1
		}
		return s.layerMetrics(g)
	}
	return nil
}

// layerMetrics turns the traced segment's spans and counter deltas
// into the per-layer metrics of a serving workload.
func (s *serving) layerMetrics(g *segStats) error {
	m := s.res.metrics
	tot := aggregate(s.rec.spans)
	us := time.Microsecond
	solveUS, solves, err := s.measureSolve(s.load.shape)
	if err != nil {
		return err
	}
	m["serve.solve_us"] = solveUS
	s.res.samples["serve.solve_us"] = solves
	m["front.self_us"] = tot.meanSelf(spFrontHandler, us)
	m["front.hop_us"] = tot.meanSelf(spFrontHop, us)
	m["cluster.self_us"] = tot.meanSelf(spClusterHandler, us)
	m["cluster.hop_us"] = tot.meanSelf(spClusterHop, us)
	// A schedd handler has no child spans; what the solve does not
	// explain of it is decode, encode and admission.
	m["serve.self_us"] = tot.meanSelf(spServeHandler, us) - solveUS
	s.res.samples["front.self_us"], s.res.samples["front.hop_us"] = tot.count[spFrontHandler], tot.count[spFrontHop]
	s.res.samples["cluster.self_us"], s.res.samples["cluster.hop_us"] = tot.count[spClusterHandler], tot.count[spClusterHop]
	s.res.samples["serve.self_us"] = tot.count[spServeHandler]
	m["trace.self_sum_share"] = tot.selfSumShare

	d := func(name string) float64 { return g.counts[name] }
	items := float64(g.items)
	// Schedule requests the schedds took or refused; serve.requests_total
	// would add the health probes of two clusterds, which at a few dozen
	// items a second are a fifth of it.
	m["http.requests_per_item"] = ratio(d("serve.schedule")+d("serve.rejected_429"), items)
	m["cluster.dispatch_per_item"] = ratio(d("cluster.dispatches_total"), d("cluster.items_total"))
	m["cluster.hedge_win_share"] = ratio(d("cluster.hedge_wins"), d("cluster.hedges_fired"))
	m["cluster.retries_per_item"] = ratio(d("cluster.redispatches")+d("cluster.retries_429"), d("cluster.items_total"))
	m["serve.rejected_share"] = ratio(d("serve.rejected_429"), d("serve.requests_total"))
	m["front.shed_share"] = ratio(d("front.shed"), items)
	m["opt.miss_share"] = ratio(d("opt.cache_misses"), d("opt.cache_hits")+d("opt.cache_misses"))
	m["opt.exact_share"] = ratio(d("opt.exact_solves"), d("opt.cache_misses"))
	return nil
}
