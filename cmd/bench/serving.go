package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/opt"
	"repro/internal/rng"
)

// resolveEvery is the sampling period of the harness's own re-solve:
// one served item in this many is run through algo.Execute here and
// the served makespan must agree.
const resolveEvery = 64

// tally is what a client counted over a segment, and what a segment
// or a run adds up from its clients.
type tally struct {
	latMS []float64 // per request; from the due time in an open loop
	gapMS []float64 // closed loop: completion to next send; open loop: how late the timer woke the sender
	// waitUS is, in an open loop, due time to send: the client queue.
	waitUS []float64

	requests       int
	items, okItems int
	failed         int
	endpointItems  [2]int // correct items by endpoint: batch, stream
	endpointBusy   [2]time.Duration
}

func (t *tally) add(o *tally) {
	t.latMS = append(t.latMS, o.latMS...)
	t.gapMS = append(t.gapMS, o.gapMS...)
	t.waitUS = append(t.waitUS, o.waitUS...)
	t.requests += o.requests
	t.items += o.items
	t.okItems += o.okItems
	t.failed += o.failed
	for e := range o.endpointItems {
		t.endpointItems[e] += o.endpointItems[e]
		t.endpointBusy[e] += o.endpointBusy[e]
	}
}

// clientStats is what one client goroutine (one keep-alive connection)
// saw during a segment.
type clientStats struct {
	tally
	// per request, beside its latency: when it began (when it was due, in
	// an open loop) and ended, and the tasks of its correct items
	began, ended []time.Duration
	tasks        []int

	firstFailure string
	seen         int // items seen so far, for the re-solve sampling
}

// record books one finished request.
func (c *clientStats) record(began, ended time.Duration, okTasks int) {
	c.began = append(c.began, began)
	c.ended = append(c.ended, ended)
	c.latMS = append(c.latMS, float64(ended-began)/float64(time.Millisecond))
	c.tasks = append(c.tasks, okTasks)
}

func (c *clientStats) fail(n int, format string, args ...any) {
	c.failed += n
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

// serving is the state the four serving workloads share.
type serving struct {
	cfg  runConfig
	name string
	load serveLoad
	res  *result
	rec  *recorder
	// st is the stack the round under way booted; setups is every
	// round's set-up time in seconds.
	st     *stack
	setups []float64
}

// exchange sends one request and checks its answer. It returns when
// the whole answer has been read. sent and done are since epoch.
func (s *serving) exchange(ctx context.Context, cs *clientStats, req *request, traced bool, epoch time.Time) (sent, done time.Duration, okTasks int) {
	path := "/v1/batch"
	endpoint := 0
	if req.stream {
		path, endpoint = "/v1/stream", 1
	}
	cs.requests++
	cs.items += len(req.items)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.st.frontURL+path, bytes.NewReader(req.body))
	if err != nil {
		cs.fail(len(req.items), "%s: %v", s.name, err)
		now := time.Since(epoch)
		return now, now, 0
	}
	hreq.Header.Set("Content-Type", "application/json")
	var root span
	if traced {
		root = span{id: s.rec.newID(), name: spClient, start: s.rec.now()}
		root.op = root.id
		hreq.Header.Set(spanHeader, formatRef(spanRef{op: root.op, id: root.id}))
	}
	sent = time.Since(epoch)
	status, data, err := s.roundTrip(hreq)
	done = time.Since(epoch)
	if traced {
		root.end = s.rec.now()
		s.rec.add(root)
	}
	cs.endpointBusy[endpoint] += done - sent
	switch {
	case err != nil:
		cs.fail(len(req.items), "%s: %v", s.name, err)
	case status != http.StatusOK:
		// A refused request misses every limit: its items all count.
		cs.fail(len(req.items), "%s: status %d: %s", s.name, status, bytes.TrimSpace(data))
	default:
		var ok int
		ok, okTasks = s.checkAnswer(cs, req, data)
		cs.okItems += ok
		cs.endpointItems[endpoint] += ok
	}
	return sent, done, okTasks
}

func (s *serving) roundTrip(hreq *http.Request) (int, []byte, error) {
	resp, err := s.st.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// checkAnswer applies the output checks to every item of one answer
// and returns how many items, carrying how many tasks, passed.
func (s *serving) checkAnswer(cs *clientStats, req *request, data []byte) (okItems, okTasks int) {
	var results []wireResult
	if req.stream {
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var r wireResult
			if err := dec.Decode(&r); err != nil {
				cs.fail(len(req.items), "%s: stream answer: %v", s.name, err)
				return 0, 0
			}
			results = append(results, r)
		}
	} else {
		var br wireBatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			cs.fail(len(req.items), "%s: batch answer: %v", s.name, err)
			return 0, 0
		}
		results = br.Results
	}
	if len(results) != len(req.items) {
		cs.fail(len(req.items), "%s: %d results for %d items", s.name, len(results), len(req.items))
		return 0, 0
	}
	for k := range results {
		it, r := &req.items[k], &results[k]
		cs.seen++
		if msg := s.checkItem(it, r, k, cs.seen%resolveEvery == 1); msg != "" {
			cs.fail(1, "%s: item %d: %s", s.name, k, msg)
			continue
		}
		okItems++
		okTasks += len(it.Instance.Estimates)
	}
	return okItems, okTasks
}

// checkItem returns what is wrong with one served item, or "".
func (s *serving) checkItem(it *wireItem, r *wireResult, k int, resolve bool) string {
	resp := r.Response
	switch {
	case r.Error != "":
		return r.Error
	case r.Index != k:
		return fmt.Sprintf("index %d", r.Index)
	case resp == nil:
		return "no response"
	case resp.N != len(it.Instance.Estimates) || resp.M != it.Instance.M:
		return fmt.Sprintf("echoes n=%d m=%d, sent n=%d m=%d", resp.N, resp.M, len(it.Instance.Estimates), it.Instance.M)
	case !(resp.Makespan > 0):
		return fmt.Sprintf("makespan %v", resp.Makespan)
	case resp.BoundOK != nil && !*resp.BoundOK:
		return "bound_ok is false: the served schedule breaks the paper's guarantee"
	}
	if !resolve {
		return ""
	}
	a, err := algo.New(it.Algorithm)
	if err != nil {
		return err.Error()
	}
	in, err := it.instance()
	if err != nil {
		return err.Error()
	}
	own, err := algo.Execute(in, a)
	if err != nil {
		return err.Error()
	}
	// 1e-6 relative leaves room for a fixed-point engine's quantisation.
	if math.Abs(own.Makespan-resp.Makespan) > 1e-6*own.Makespan {
		return fmt.Sprintf("served makespan %v, re-solved %v", resp.Makespan, own.Makespan)
	}
	return ""
}

// segStats is what the clients of a serving workload saw over one
// measured segment, or over several added up.
type segStats struct {
	tally
	wall time.Duration
	gen  time.Duration // open loop: pre-drawing the schedule and its requests, before the window
	// what the process used over the segment, and what the program's
	// own counters counted
	used   procSnap
	counts map[string]float64

	slices  []slice
	backlog int // open loop: requests due but unsent when the window ended; over several windows, the most
}

// slice is one stretch of a measured segment: the tasks of correctly
// answered items per second of it, and the median latency of the
// requests that ended in it (0 when none did).
type slice struct {
	tasksPerS float64
	p50MS     float64
}

// collect merges the clients of one segment that measured for d (0: a
// warm-up, which has no slices) and books their failures to the run's
// result, client by client so the first failure reported does not
// depend on scheduling. A request's tasks are spread over the slices it
// was in flight in, by the time it spent in each: a slice's rate then
// neither jumps with the requests that happen to end just inside it
// nor starts low because the first answers are still on their way.
func (s *serving) collect(g *segStats, clients []clientStats, d time.Duration) {
	width := d / slicesPerRound
	tasks := make([]float64, slicesPerRound)
	lat := make([][]float64, slicesPerRound)
	for i := range clients {
		c := &clients[i]
		for r, ended := range c.ended {
			if d == 0 {
				break
			}
			began := c.began[r]
			for k := range tasks {
				lo, hi := max(began, time.Duration(k)*width), min(ended, time.Duration(k+1)*width)
				if hi > lo {
					tasks[k] += float64(c.tasks[r]) * float64(hi-lo) / float64(ended-began)
				}
			}
			if k := int(ended / width); k < slicesPerRound {
				lat[k] = append(lat[k], c.latMS[r])
			}
		}
		g.tally.add(&c.tally)
		if c.failed > 0 {
			s.res.failN(c.failed, c.firstFailure)
		}
	}
	s.res.attempted += g.items
	for k := 0; d > 0 && k < slicesPerRound; k++ {
		g.slices = append(g.slices, slice{tasksPerS: tasks[k] / width.Seconds(), p50MS: median(lat[k])})
	}
}

// add folds another round's segment into g.
func (g *segStats) add(o *segStats) {
	g.tally.add(&o.tally)
	g.wall += o.wall
	g.gen += o.gen
	g.used = g.used.plus(o.used)
	if g.counts == nil {
		g.counts = map[string]float64{}
	}
	for name, v := range o.counts {
		g.counts[name] += v
	}
	g.slices = append(g.slices, o.slices...)
	g.backlog = max(g.backlog, o.backlog)
}

// tasksPerS is the upper quartile of the slices' rates and p50MS the
// lower quartile of their median latencies; harness.go says why.
func (g *segStats) tasksPerS() float64 {
	rates := make([]float64, len(g.slices))
	for i, sl := range g.slices {
		rates[i] = sl.tasksPerS
	}
	return upperQuartile(rates)
}

func (g *segStats) p50MS() float64 {
	var medians []float64
	for _, sl := range g.slices {
		if sl.p50MS > 0 {
			medians = append(medians, sl.p50MS)
		}
	}
	return lowerQuartile(medians)
}

// cpuPerItem is the processor time the whole process spent per
// correct item.
func (g *segStats) cpuPerItem() float64 {
	return ratio(g.used.cpu.Seconds(), float64(g.okItems))
}

// endpointRate is the throughput the clients had while on one
// endpoint: its correct items over the mean client time spent there.
func (g *segStats) endpointRate(e, clients int) float64 {
	return ratio(float64(g.endpointItems[e]), g.endpointBusy[e].Seconds()/float64(clients))
}

// segment runs fn between two readings of the process's and the
// program's counters and collects what its clients saw.
func (s *serving) segment(d time.Duration, fn func(clients []clientStats, epoch time.Time) error) (*segStats, error) {
	g := &segStats{counts: map[string]float64{}}
	clients := make([]clientStats, s.cfg.clients)
	countsBefore, before := obsCounts(), takeProcSnap()
	epoch := time.Now()
	err := fn(clients, epoch)
	g.wall = time.Since(epoch)
	g.used = takeProcSnap().minus(before)
	for name, v := range obsCounts() {
		g.counts[name] = float64(v - countsBefore[name])
	}
	if err != nil {
		return nil, err
	}
	s.collect(g, clients, d)
	return g, nil
}

// reqGen renders request i of a client.
type reqGen func(client, i int) (*request, error)

// closedLoop keeps one request in flight per client. With count > 0
// every client sends exactly that many; otherwise clients start new
// requests until d has passed and finish the one in flight.
func (s *serving) closedLoop(ctx context.Context, d time.Duration, count int, gen reqGen, next []int, traced bool) (*segStats, error) {
	return s.segment(d, func(clients []clientStats, epoch time.Time) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs := &clients[c]
				lastDone := time.Since(epoch)
				for n := 0; (count > 0 && n < count) || (count == 0 && time.Since(epoch) < d); n++ {
					req, err := gen(c, next[c])
					if err != nil {
						errs[c] = err
						return
					}
					next[c]++
					sent, done, okTasks := s.exchange(ctx, cs, req, traced, epoch)
					cs.gapMS = append(cs.gapMS, float64(sent-lastDone)/float64(time.Millisecond))
					cs.record(sent, done, okTasks)
					lastDone = done
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}

// clock is what the open-loop schedule reads time from; tests pass a
// fake one.
type clock interface {
	// Now is the time since the schedule's start.
	Now() time.Duration
	// SleepUntil returns no earlier than t.
	SleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.epoch) }

// SleepUntil sleeps in the kernel, not on a runtime timer: an idle Go
// process polls its timers once a millisecond, which would send every
// request most of a millisecond late, and a nanosleep is woken by a
// high-resolution timer. A signal cuts a nanosleep short, so it is
// repeated until the time has come.
func (w wallClock) SleepUntil(t time.Duration) {
	for d := t - w.Now(); d > 0; d = t - w.Now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // cut short or not, the loop looks at the clock
	}
}

// openSchedule hands out pre-drawn requests at their absolute due
// times. Senders claim requests in due order; a sender that claims a
// request early sleeps until it is due, one that claims it late sends
// at once. Nothing is timed relative to a wake-up, so a stalled sender
// delays requests (which their latency, taken from the due time,
// shows) but never moves a due time.
type openSchedule struct {
	due  []time.Duration // since the window's start, ascending
	end  time.Duration   // no request is claimed at or after this
	clk  clock
	next atomic.Int64
}

// claim returns the next request's index. lag is how late the clock
// woke the sender for a request it was waiting for, 0 for a request
// that was already overdue when claimed. ok is false once the window
// is over or the schedule is used up.
func (o *openSchedule) claim() (k int, lag time.Duration, ok bool) {
	k = int(o.next.Add(1) - 1)
	if k >= len(o.due) {
		return k, 0, false
	}
	if now := o.clk.Now(); now < o.due[k] {
		o.clk.SleepUntil(o.due[k])
		lag = o.clk.Now() - o.due[k]
	}
	if o.clk.Now() >= o.end {
		// Give the request back: it was due but never sent.
		o.next.Add(-1)
		return k, 0, false
	}
	return k, lag, true
}

// backlog is how many requests were due before end and never claimed.
func (o *openSchedule) backlog() int {
	return max(0, len(o.due)-int(o.next.Load()))
}

// poissonSchedule pre-draws due times at the given rate up to end.
func poissonSchedule(s uint64, rate float64, end time.Duration) []time.Duration {
	src := rng.New(s)
	var due []time.Duration
	for t := src.Exp(rate); t < end.Seconds(); t += src.Exp(rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// openLoop sends the pre-drawn requests of one rate on their schedule
// over one connection per client. The client queue is unbounded: a
// request waits, past its due time, for the next free connection, and
// its latency runs from the due time. stream keeps the requests of one
// segment apart from every other's.
func (s *serving) openLoop(ctx context.Context, d time.Duration, stream int, rate float64, traced bool) (*segStats, error) {
	genStart := time.Now()
	due := poissonSchedule(streamSeed(s.cfg.seed, s.name+"/schedule", stream, 0), rate, d)
	reqs := make([]*request, len(due))
	for k := range reqs {
		var err error
		if reqs[k], err = genRequest(streamSeed(s.cfg.seed, s.name, stream, k), s.load.shape, s.load.items, false); err != nil {
			return nil, err
		}
	}
	genTime := time.Since(genStart)
	var sched *openSchedule
	g, err := s.segment(d, func(clients []clientStats, epoch time.Time) error {
		sched = &openSchedule{due: due, end: d, clk: wallClock{epoch: epoch}}
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs := &clients[c]
				for {
					k, lag, ok := sched.claim()
					if !ok {
						return
					}
					sent, done, okTasks := s.exchange(ctx, cs, reqs[k], traced, epoch)
					cs.gapMS = append(cs.gapMS, float64(lag)/float64(time.Millisecond))
					cs.waitUS = append(cs.waitUS, float64(sent-due[k])/float64(time.Microsecond))
					cs.record(due[k], done, okTasks)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.gen, g.backlog = genTime, sched.backlog()
	return g, nil
}

// measureSolve times the solve a schedd does for one item, here in
// the harness: algo.Execute plus opt.Estimate on the sibling stream
// (seed+1: same shapes, other values, so the memo the tiers share has
// not seen them). It is what serve.self_us subtracts.
func (s *serving) measureSolve(shape itemShape) (meanUS float64, n int, err error) {
	// A second of solves, but at least 2 and at most 256.
	total := time.Duration(0)
	for n < 256 && (n < 2 || total < time.Second) {
		req, err := genRequest(streamSeed(siblingSeed(s.cfg.seed), s.name, 0, n), shape, 1, false)
		if err != nil {
			return 0, n, err
		}
		it := &req.items[0]
		a, err := algo.New(it.Algorithm)
		if err != nil {
			return 0, n, err
		}
		in, err := it.instance()
		if err != nil {
			return 0, n, err
		}
		start := time.Now()
		if _, err := algo.Execute(in, a); err != nil {
			return 0, n, err
		}
		opt.Estimate(in.Actuals(), in.M, 0)
		total += time.Since(start)
		n++
	}
	return float64(total) / float64(time.Microsecond) / float64(n), n, nil
}
