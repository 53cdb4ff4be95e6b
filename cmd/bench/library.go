package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/task"
)

// libClass is one strategy class of a library workload.
type libClass struct {
	name string
	// algoName resolves the class's algorithm for the traced phase
	// replay; empty for the memory-aware class.
	algoName string
	cfg      core.Config
	abo      bool
	// open-replay only:
	m      int
	policy sim.CancelPolicy
	cost   float64
}

var pipelineClasses = []libClass{
	{name: "none", algoName: "lpt-nochoice", cfg: core.Config{Strategy: core.NoReplication}},
	{name: "groups8", algoName: "ls-group:8", cfg: core.Config{Strategy: core.Groups, Groups: 8}},
	{name: "everywhere", algoName: "lpt-norestriction", cfg: core.Config{Strategy: core.ReplicateEverywhere}},
	{name: "abo", abo: true},
}

var (
	everywhere = core.Config{Strategy: core.ReplicateEverywhere}
	groups8    = core.Config{Strategy: core.Groups, Groups: 8}
)

var openClasses = []libClass{
	{name: "ev-coc", algoName: "lpt-norestriction", cfg: everywhere, m: 64, policy: sim.CancelOnCompletion, cost: 0.1},
	{name: "g8-coc", algoName: "ls-group:8", cfg: groups8, m: 64, policy: sim.CancelOnCompletion, cost: 0.1},
	{name: "g8-coc0", algoName: "ls-group:8", cfg: groups8, m: 64, policy: sim.CancelOnCompletion},
	{name: "ev-cos", algoName: "lpt-norestriction", cfg: everywhere, m: 64, policy: sim.CancelOnStart},
	{name: "ev-coc-m128", algoName: "lpt-norestriction", cfg: everywhere, m: 128, policy: sim.CancelOnCompletion, cost: 0.1},
}

// classStats accumulates one class's timed runs.
type classStats struct {
	runs, tasks int
	busy        time.Duration
	latMS       []float64
	// rates is tasks over time in calls, one value per slice of the
	// class's work: a rotation block in pipeline-fresh, so that every
	// value holds one cold optimum solve and three memo hits, and a call
	// in open-replay.
	rates []float64
}

// tasksPerS is the upper quartile of the class's slice rates; harness.go
// says why.
func (c *classStats) tasksPerS() float64 { return upperQuartile(c.rates) }

// libStats is one measured segment of a library workload.
type libStats struct {
	classes []classStats
	latMS   []float64
	gen     time.Duration // generating instances, untimed
	gaps    []float64     // ms the driver spent between timed calls
	digest  float64
	wall    time.Duration
	// counts is the program's own counters summed over the traced timed
	// calls only, so the replays between them leave no mark.
	counts map[string]float64
}

// libCounters are the counters a traced library call is bracketed by.
var libCounters = []string{
	"opt.cache_hits", "opt.cache_misses", "opt.exact_solves",
	"sim.runs", "sim.open_runs", "sim.flat_runs", "sim.flat_open_runs",
	"sim.events_popped", "sim.open_events_popped", "sim.open_stale_skipped", "sim.open_cancelled_replicas",
}

func newLibStats(classes int) *libStats {
	return &libStats{classes: make([]classStats, classes), counts: map[string]float64{}}
}

// add folds another round's segment into s.
func (s *libStats) add(o *libStats) {
	for i := range s.classes {
		c, oc := &s.classes[i], &o.classes[i]
		c.runs += oc.runs
		c.tasks += oc.tasks
		c.busy += oc.busy
		c.latMS = append(c.latMS, oc.latMS...)
		c.rates = append(c.rates, oc.rates...)
	}
	s.latMS = append(s.latMS, o.latMS...)
	s.gaps = append(s.gaps, o.gaps...)
	s.gen += o.gen
	s.digest += o.digest
	s.wall += o.wall
	for name, v := range o.counts {
		s.counts[name] += v
	}
}

func (s *libStats) ops() int {
	n := 0
	for i := range s.classes {
		n += s.classes[i].runs
	}
	return n
}

func (s *libStats) tasksPerS() float64 {
	rates := make([]float64, len(s.classes))
	for i := range s.classes {
		rates[i] = s.classes[i].tasksPerS()
	}
	return geomean(rates)
}

// library is the state shared by the two library workloads: one
// reusable core.Runner, as the experiment harness pools them, and the
// span recorder when the run is traced.
type library struct {
	cfg    runConfig
	name   string
	res    *result
	runner core.Runner
	rec    *recorder
	// next is the index of the next fresh instance of the measured
	// rounds, per class where the classes draw their own (open-replay),
	// else in next[0].
	next []int
}

// timedCall runs fn as one op: timed, counted and booked to its class. A traced call also reads
// the optimum memo's counters around itself, so the replay can
// reproduce whether the call found its instance in the memo; untraced
// calls skip that, to keep the driver's own allocations out of the
// window.
func (l *library) timedCall(st *libStats, class, tasks int, name spanName, traced bool, fn func() error) (sp span, misses float64, err error) {
	var before map[string]int64
	if traced {
		before = obsCounts()
		sp = span{name: name, id: l.rec.newID(), start: l.rec.now()}
		sp.op = sp.id
	}
	start := time.Now()
	err = fn()
	dur := time.Since(start)
	if traced {
		sp.end = sp.start + dur
		l.rec.add(sp)
		after := obsCounts()
		for _, name := range libCounters {
			st.counts[name] += delta(before, after, name)
		}
		misses = delta(before, after, "opt.cache_misses")
	}
	ms := float64(dur) / float64(time.Millisecond)
	st.latMS = append(st.latMS, ms)
	c := &st.classes[class]
	c.runs++
	c.tasks += tasks
	c.busy += dur
	c.latMS = append(c.latMS, ms)
	l.res.attempted++
	return sp, misses, err
}

// since times one replayed phase.
func since(start *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*start)
	*start = now
	return d
}

// replayPlan replays phase 1 and the priority order of a class through
// the algorithm's public methods, returning the three durations.
func replayPlan(in *task.Instance, algoName string) ([]time.Duration, error) {
	a, err := algo.New(algoName)
	if err != nil {
		return nil, err
	}
	at := time.Now()
	p, err := a.Place(in)
	if err != nil {
		return nil, err
	}
	place := since(&at)
	if err := p.Validate(in); err != nil {
		return nil, err
	}
	validate := since(&at)
	_ = a.Order(in) // only its duration is wanted
	return []time.Duration{place, validate, since(&at)}, nil
}

// replayEstimate replays one optimum solve. When the timed call missed
// the memo the memo is emptied first, so the replay is as cold as the
// call was.
func replayEstimate(times []float64, m int, missed bool) time.Duration {
	if missed {
		opt.ResetCache()
	}
	start := time.Now()
	opt.Estimate(times, m, 0)
	return time.Since(start)
}

// checkOutcome applies the output checks of a replication-bound run.
func (l *library) checkOutcome(class string, out *core.Outcome) float64 {
	if g := out.Guarantee; !math.IsNaN(g) && out.Makespan > g*out.Optimum.Upper*(1+1e-9) {
		l.res.fail("%s/%s: makespan %v above guarantee %v x optimum %v", l.name, class, out.Makespan, g, out.Optimum.Upper)
	}
	if out.RatioUpper < 1-1e-9 {
		l.res.fail("%s/%s: ratio %v below 1: makespan beats the optimum's lower bound", l.name, class, out.RatioUpper)
	}
	return out.Makespan
}

// pipelineOp runs one instance under one class of pipeline-fresh and
// returns the makespan for the digest.
func (l *library) pipelineOp(st *libStats, in *task.Instance, ci int, traced bool) float64 {
	c := &pipelineClasses[ci]
	if c.abo {
		return l.aboOp(st, in, ci, traced)
	}
	var out *core.Outcome
	sp, missed, err := l.timedCall(st, ci, in.N(), spCoreRun, traced, func() (err error) {
		out, err = l.runner.Run(in, c.cfg)
		return err
	})
	if err != nil {
		l.res.fail("%s/%s: %v", l.name, c.name, err)
		return 0
	}
	makespan := l.checkOutcome(c.name, out)
	if traced {
		durs, err := replayPlan(in, c.algoName)
		if err != nil {
			l.res.fail("%s/%s replay: %v", l.name, c.name, err)
			return makespan
		}
		at := time.Now()
		if err := out.Schedule.Verify(in, out.Placement); err != nil {
			l.res.fail("%s/%s replay: %v", l.name, c.name, err)
		}
		durs = append(durs, since(&at), replayEstimate(in.Actuals(), in.M, missed > 0))
		l.rec.addPhases(sp, []spanName{spPlace, spValidate, spOrder, spVerify, spEstimate}, durs)
	}
	return makespan
}

// aboOp is the memory-aware class: ABO with delta 1, scored against
// both single-objective optima.
func (l *library) aboOp(st *libStats, in *task.Instance, ci int, traced bool) float64 {
	var out *core.MemoryAwareOutcome
	sp, missed, err := l.timedCall(st, ci, in.N(), spMemRun, traced, func() (err error) {
		out, err = core.RunMemoryAware(in, core.MemoryAwareConfig{Delta: 1, Replicate: true})
		return err
	})
	if err != nil {
		l.res.fail("%s/abo: %v", l.name, err)
		return 0
	}
	r := out.Result
	if r.Makespan > out.MakespanRatioBound*out.OptMakespan.Upper*(1+1e-9) {
		l.res.fail("%s/abo: makespan %v above bound %v x optimum %v", l.name, r.Makespan, out.MakespanRatioBound, out.OptMakespan.Upper)
	}
	if r.MemMax > out.MemoryRatioBound*out.OptMemory.Upper*(1+1e-9) {
		l.res.fail("%s/abo: memory %v above bound %v x optimum %v", l.name, r.MemMax, out.MemoryRatioBound, out.OptMemory.Upper)
	}
	if traced {
		at := time.Now()
		if _, err := memaware.ABO(in, memaware.Config{Delta: 1}); err != nil {
			l.res.fail("%s/abo replay: %v", l.name, err)
		}
		abo := since(&at)
		// The call solves two optima, side by side: sizes are new to the
		// memo every time, actuals only when this class came first in
		// the rotation. The replay solves them one after the other, so
		// addPhases may clip it to the call.
		est := replayEstimate(in.Actuals(), in.M, missed > 1) + replayEstimate(in.Sizes(), in.M, true)
		l.rec.addPhases(sp, []spanName{spABO, spEstimate}, []time.Duration{abo, est})
		// Emptying the memo for the sizes dropped the actuals; put them
		// back for the classes still to run on this instance.
		opt.Estimate(in.Actuals(), in.M, 0)
	}
	return r.Makespan
}

// openOp replays one open-system instance under one class and returns
// the sum of response times for the digest.
func (l *library) openOp(st *libStats, in *task.Instance, arrive []float64, ci int, traced bool) float64 {
	c := &openClasses[ci]
	var out *core.OpenOutcome
	sp, _, err := l.timedCall(st, ci, in.N(), spCoreOpen, traced, func() (err error) {
		out, err = l.runner.RunOpenSystem(in, arrive, core.OpenConfig{Config: c.cfg, Policy: c.policy, CancelCost: c.cost})
		return err
	})
	if err != nil {
		l.res.fail("%s/%s: %v", l.name, c.name, err)
		return 0
	}
	resp := out.Result.Responses
	if len(resp) != in.N() {
		l.res.fail("%s/%s: %d responses for %d tasks", l.name, c.name, len(resp), in.N())
	}
	sum := 0.0
	for j, r := range resp {
		if !(r > 0) || math.IsInf(r, 0) {
			l.res.fail("%s/%s: task %d response %v", l.name, c.name, j, r)
			break
		}
		sum += r
	}
	if traced {
		durs, err := replayPlan(in, c.algoName)
		if err != nil {
			l.res.fail("%s/%s replay: %v", l.name, c.name, err)
			return sum
		}
		l.rec.addPhases(sp, []spanName{spPlace, spValidate, spOrder}, durs)
	}
	return sum
}

// segmentPlan says how long a measured segment of a library workload
// runs and which instances it takes.
type segmentPlan struct {
	d time.Duration // measure for this long ...
	// ... or, when warm, run the warm-up: one instance per class, drawn
	// from a stream of its own so that it is none of the window's and the
	// same in every round
	warm bool
	// instances with an index below digestBelow feed the digest
	digestBelow int
	traced      bool
}

// stream returns where a segment takes its instances from: the
// client coordinate's offset and the per-class index counters.
func (l *library) stream(p segmentPlan) (base int, next []int) {
	if p.warm {
		return warmClient, make([]int, len(l.next))
	}
	return 0, l.next
}

// classMedianMS is the geometric mean over classes of the median call
// time. The classes differ tenfold in cost and a time-split window
// gives the cheap ones most of the calls, so the median over all calls
// would sit wherever two classes happen to meet.
func (s *libStats) classMedianMS() float64 {
	medians := make([]float64, len(s.classes))
	for i := range s.classes {
		medians[i] = median(s.classes[i].latMS)
	}
	return geomean(medians)
}

// pipelineSegment measures pipeline-fresh: fresh instances, each run
// under the four classes in rotating order so every class pays the
// cold optimum solve a quarter of the time. It runs whole rotation
// blocks of four instances, after which every class has paid it once;
// a block is a class's slice.
func (l *library) pipelineSegment(p segmentPlan) (*libStats, error) {
	k := len(pipelineClasses)
	st := newLibStats(k)
	base, next := l.stream(p)
	blockBusy := make([]time.Duration, k)
	start := time.Now()
	lastEnd := start
	more := func(done int) bool {
		if p.warm {
			return done == 0
		}
		return done%k != 0 || time.Since(start) < p.d
	}
	for done := 0; more(done); done++ {
		i := next[0]
		next[0]++
		genStart := time.Now()
		in, err := uniformInstance(streamSeed(l.cfg.seed, l.name, base, i), l.cfg.sizes.pipelineN, l.cfg.sizes.pipelineM)
		if err != nil {
			return nil, err
		}
		st.gen += time.Since(genStart)
		for j := range pipelineClasses {
			ci := (i + j) % k
			st.gaps = append(st.gaps, float64(time.Since(lastEnd))/float64(time.Millisecond))
			busy := st.classes[ci].busy
			makespan := l.pipelineOp(st, in, ci, p.traced)
			blockBusy[ci] += st.classes[ci].busy - busy
			lastEnd = time.Now()
			if i < p.digestBelow {
				st.digest += makespan
			}
		}
		if done%k == k-1 {
			for ci := range blockBusy {
				st.classes[ci].rates = append(st.classes[ci].rates, ratio(float64(k*in.N()), blockBusy[ci].Seconds()))
			}
			clear(blockBusy)
		}
	}
	st.wall = time.Since(start)
	return st, nil
}

// openSegment measures open-replay, its time split evenly over the
// five classes: passes visit every class that has not used up its
// share, so the classes interleave and a drift of the host hits them
// alike. A call is a class's slice.
func (l *library) openSegment(p segmentPlan) (*libStats, error) {
	st := newLibStats(len(openClasses))
	base, next := l.stream(p)
	budget := p.d / time.Duration(len(openClasses))
	start := time.Now()
	lastEnd := start
	for progressed := true; progressed; {
		progressed = false
		for ci := range openClasses {
			c := &openClasses[ci]
			if (p.warm && st.classes[ci].runs >= 1) || (!p.warm && st.classes[ci].busy >= budget) {
				continue
			}
			progressed = true
			i := next[ci]
			next[ci]++
			genStart := time.Now()
			s := streamSeed(l.cfg.seed, l.name, base+ci, i)
			in, err := uniformInstance(s, l.cfg.sizes.openN, c.m)
			if err != nil {
				return nil, err
			}
			arrive, err := poissonArrivals(s, in.N(), c.m)
			if err != nil {
				return nil, err
			}
			st.gen += time.Since(genStart)
			st.gaps = append(st.gaps, float64(time.Since(lastEnd))/float64(time.Millisecond))
			busy := st.classes[ci].busy
			sum := l.openOp(st, in, arrive, ci, p.traced)
			st.classes[ci].rates = append(st.classes[ci].rates, ratio(float64(in.N()), (st.classes[ci].busy-busy).Seconds()))
			lastEnd = time.Now()
			if i < p.digestBelow {
				st.digest += sum
			}
		}
	}
	st.wall = time.Since(start)
	return st, nil
}

// libSpec is what tells the two library workloads apart.
type libSpec struct {
	name    string
	prefix  string // of the per-class metrics
	digest  string // the digest metric's name
	classes []libClass
	segment func(*library, segmentPlan) (*libStats, error)
}

var (
	specPipeline = libSpec{"pipeline-fresh", "pipeline.", "pipeline.makespan_digest", pipelineClasses, (*library).pipelineSegment}
	specOpen     = libSpec{"open-replay", "open.", "open.response_digest", openClasses, (*library).openSegment}
)

// runLibrary is the frame both library workloads share: rounds of a
// set-up (an empty memo, a fresh Runner and a warm-up pass whose digest
// must repeat bit for bit) and a measured segment. In a traced run
// every other round is left untraced, to hold the traced rate against.
func runLibrary(cfg runConfig, spec libSpec) (*result, error) {
	res := newResult()
	name, classes := spec.name, spec.classes
	l := &library{cfg: cfg, name: name, res: res, next: make([]int, len(classes))}
	if cfg.trace {
		l.rec = newRecorder()
	}
	share := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.rounds))
	st, untraced := newLibStats(len(classes)), newLibStats(len(classes))
	var (
		setups []float64
		used   procSnap
		digest float64
	)
	warmDigest := math.NaN()
	for r := 0; r < cfg.rounds; r++ {
		start := time.Now()
		opt.ResetCache()
		l.runner = core.Runner{}
		warm, err := spec.segment(l, segmentPlan{warm: true, digestBelow: 1})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		// Simulated results may not move when only host speed is meant
		// to, so every round's warm-up must give the same digest.
		//lint:ignore floatcmp bit-identity across rounds is the contract being checked
		if !math.IsNaN(warmDigest) && warm.digest != warmDigest {
			res.fail("%s: warm-up digest %v did not repeat (was %v)", name, warm.digest, warmDigest)
		}
		warmDigest = warm.digest

		traced := cfg.tracedRound(r)
		before := takeProcSnap()
		seg, err := spec.segment(l, segmentPlan{d: share, digestBelow: cfg.sizes.digestRuns, traced: traced})
		if err != nil {
			return nil, err
		}
		digest += seg.digest
		if cfg.trace && !traced {
			untraced.add(seg)
			continue
		}
		used = used.plus(takeProcSnap().minus(before))
		st.add(seg)
	}
	res.metrics["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	ops := st.ops()
	res.metrics["ops"] = float64(ops)
	res.metrics["window_s"] = st.wall.Seconds()
	res.metrics["tasks_per_s"] = st.tasksPerS()
	res.metrics["items_per_s"] = ratio(float64(ops), st.wall.Seconds())
	res.samples["tasks_per_s"] = ops
	res.samples["items_per_s"] = ops
	res.setLatency(st.latMS)
	res.metrics["lat_p50_ms"] = st.classMedianMS()
	res.setMemory(used, ops)
	res.metrics["fail_share"] = ratio(float64(res.failed), float64(res.attempted))
	res.metrics["workload.gen_ms"] = ratio(float64(st.gen)/float64(time.Millisecond), float64(ops))
	slices.Sort(st.gaps)
	res.metrics["driver.lag_p99_ms"] = quantile(st.gaps, 0.99)
	res.metrics[spec.digest] = digest
	for i, c := range classes {
		res.metrics[spec.prefix+c.name+".tasks_per_s"] = st.classes[i].tasksPerS()
		res.samples[spec.prefix+c.name+".tasks_per_s"] = st.classes[i].runs
		if runs := st.classes[i].runs + untraced.classes[i].runs; runs < cfg.sizes.minClassRuns {
			res.invalidate("class %s got %d runs, fewer than %d", c.name, runs, cfg.sizes.minClassRuns)
		}
	}
	if cfg.trace {
		res.metrics["trace.overhead_share"] = 1 - ratio(st.tasksPerS(), untraced.tasksPerS())
		l.layerMetrics(st)
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, l.rec.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return res, nil
}

// layerMetrics turns the traced segment's spans and counter deltas
// into the per-layer metrics of a library workload.
func (l *library) layerMetrics(st *libStats) {
	m := l.res.metrics
	tot := aggregate(l.rec.spans)
	ms := time.Millisecond
	m["core.run_ms"] = ratio(float64(tot.dur[spCoreRun]+tot.dur[spMemRun])/float64(ms), float64(tot.count[spCoreRun]+tot.count[spMemRun]))
	m["core.open_ms"] = tot.meanDur(spCoreOpen, ms)
	m["algo.place_ms"] = tot.meanDur(spPlace, ms)
	m["placement.validate_ms"] = tot.meanDur(spValidate, ms)
	m["algo.order_ms"] = tot.meanDur(spOrder, ms)
	m["sched.verify_ms"] = tot.meanDur(spVerify, ms)
	m["opt.estimate_ms"] = tot.meanDur(spEstimate, ms)
	m["memaware.abo_ms"] = tot.meanDur(spABO, ms)
	// What a replication-bound call did not spend in a replayed phase
	// is the simulator's.
	m["sim.run_ms"] = ratio(float64(tot.self[spCoreRun]+tot.self[spCoreOpen])/float64(ms), float64(tot.count[spCoreRun]+tot.count[spCoreOpen]))
	m["trace.self_sum_share"] = tot.selfSumShare
	l.res.samples["core.run_ms"] = tot.count[spCoreRun] + tot.count[spMemRun]
	l.res.samples["core.open_ms"] = tot.count[spCoreOpen]

	c := st.counts
	m["opt.miss_share"] = ratio(c["opt.cache_misses"], c["opt.cache_hits"]+c["opt.cache_misses"])
	m["opt.exact_share"] = ratio(c["opt.exact_solves"], c["opt.cache_misses"])
	flat := c["sim.flat_runs"] + c["sim.flat_open_runs"]
	m["sim.flat_share"] = ratio(flat, flat+c["sim.runs"]+c["sim.open_runs"])
	tasks := 0
	for i := range st.classes {
		tasks += st.classes[i].tasks
	}
	m["sim.events_per_task"] = ratio(c["sim.events_popped"]+c["sim.open_events_popped"], float64(tasks))
	m["sim.stale_share"] = ratio(c["sim.open_stale_skipped"], c["sim.open_events_popped"])
	m["sim.cancel_per_task"] = ratio(c["sim.open_cancelled_replicas"], float64(tasks))
}

// libraryRun is a library workload's entry in the workload table.
func libraryRun(spec libSpec) func(context.Context, runConfig) (*result, error) {
	return func(_ context.Context, cfg runConfig) (*result, error) {
		res, err := runLibrary(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		return res, nil
	}
}
