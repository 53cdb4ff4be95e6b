package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestQuartiles(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	if lo, hi := lowerQuartile(xs), upperQuartile(xs); lo != 20 || hi != 40 {
		t.Errorf("quartiles of 10..50 = %v and %v, want 20 and 40", lo, hi)
	}
	if xs[0] != 50 {
		t.Error("the quartiles sorted their argument in place")
	}
}

// TestSlicesSpreadRequestsOverTime cuts a 3 s segment of two clients
// into its slices: a request's tasks go to the slices it was in flight
// in, by the time spent in each; its latency goes where it ended; and
// what ended after the window is in no slice's latency.
func TestSlicesSpreadRequestsOverTime(t *testing.T) {
	ms := time.Millisecond
	a, b := clientStats{}, clientStats{}
	a.record(100*ms, 110*ms, 6)
	a.record(870*ms, 900*ms, 6)
	b.record(900*ms, 1100*ms, 12) // half in slice 0, half in slice 1
	b.record(1100*ms, 1140*ms, 12)
	a.record(2992*ms, 2999*ms, 0)  // answered wrongly: no tasks, but a latency
	b.record(2500*ms, 3500*ms, 18) // half of it after the window's end
	a.items, b.items, b.failed, b.firstFailure = 3, 3, 1, "boom"
	s := &serving{res: newResult()}
	g := &segStats{}
	s.collect(g, []clientStats{a, b}, 3*time.Second)
	want := []slice{{18, 20}, {18, 120}, {9, 7}}
	if len(g.slices) != len(want) {
		t.Fatalf("%d slices, want %d", len(g.slices), len(want))
	}
	for k := range want {
		if math.Abs(g.slices[k].tasksPerS-want[k].tasksPerS) > 1e-9 || math.Abs(g.slices[k].p50MS-want[k].p50MS) > 1e-9 {
			t.Errorf("slice %d = %+v, want %+v", k, g.slices[k], want[k])
		}
	}
	if len(g.latMS) != 6 || s.res.attempted != 6 || s.res.failed != 1 || s.res.firstFailure != "boom" {
		t.Errorf("%d latencies, %d attempted, %d failed (%q)", len(g.latMS), s.res.attempted, s.res.failed, s.res.firstFailure)
	}
	// The quiet quartiles: rates 18, 18, 9 and medians 20, 120, 7.
	if got := g.tasksPerS(); math.Abs(got-18) > 1e-9 {
		t.Errorf("tasksPerS = %v, want 18", got)
	}
	if got := g.p50MS(); math.Abs(got-13.5) > 1e-9 {
		t.Errorf("p50MS = %v, want 13.5", got)
	}
	// A warm-up (no window) has no slices.
	w := &segStats{}
	s.collect(w, []clientStats{a}, 0)
	if len(w.slices) != 0 {
		t.Errorf("a warm-up got %d slices", len(w.slices))
	}
}

func TestPickTailWantsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{20000, 0.99, 200, true},
		{1001, 0.99, 10, true},
		{900, 0.95, 45, true}, // 9 beyond p99: one rung down
		{150, 0.90, 15, true},
		{41, 0.75, 10, true},
		{40, 0.75, 10, true},
		{12, 0.75, 3, false}, // nothing qualifies: lowest rung, flagged
	} {
		q, beyond, ok := pickTail(c.n)
		if q != c.q || beyond != c.beyond || ok != c.ok {
			t.Errorf("pickTail(%d) = p%v, %d beyond, ok=%v; want p%v, %d, %v", c.n, q*100, beyond, ok, c.q*100, c.beyond, c.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	// A class ten times faster must not dominate: the arithmetic mean
	// of (1, 1, 1000) is 334, the geometric mean 10.
	if got := geomean([]float64{1, 1, 1000}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,1,1000) = %v, want 10", got)
	}
	if got := geomean([]float64{5, 0}); got != 0 {
		t.Errorf("geomean with a dead class = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, op: 1, name: spClient, start: 0, end: 100 * ms},
		// two children that overlap on [30,40], one that sticks out past
		// the parent's end, one nested grandchild
		{id: 2, parent: 1, op: 1, name: spFrontHop, start: 10 * ms, end: 40 * ms},
		{id: 3, parent: 1, op: 1, name: spFrontHop, start: 30 * ms, end: 60 * ms},
		{id: 4, parent: 1, op: 1, name: spFrontHop, start: 90 * ms, end: 120 * ms},
		{id: 5, parent: 2, op: 1, name: spClusterHandler, start: 15 * ms, end: 35 * ms},
		// a span whose parent was never recorded is nobody's child
		{id: 6, parent: 99, op: 2, name: spServeHandler, start: 0, end: 7 * ms},
	}
	want := []time.Duration{
		40 * ms, // 100 - ([10,60] = 50) - ([90,100] = 10)
		10 * ms, // 30 - 20
		30 * ms,
		30 * ms,
		20 * ms,
		7 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", spans[i].id, got[i], want[i])
		}
	}
	tot := aggregate(spans)
	if tot.count[spFrontHop] != 3 || tot.self[spFrontHop] != 70*ms {
		t.Errorf("front.hop: %d spans, self %v; want 3, 70ms", tot.count[spFrontHop], tot.self[spFrontHop])
	}
	// Self times sum to 137 ms over a single root of 100 ms: the
	// overlap and the overhang are work done beside the root.
	if math.Abs(tot.selfSumShare-1.37) > 1e-9 {
		t.Errorf("selfSumShare = %v, want 1.37", tot.selfSumShare)
	}
}

func TestAddPhasesClipsToTheParent(t *testing.T) {
	ms := time.Millisecond
	rec := newRecorder()
	parent := span{id: rec.newID(), name: spCoreRun, start: 5 * ms, end: 25 * ms}
	parent.op = parent.id
	rec.add(parent)
	rec.addPhases(parent, []spanName{spPlace, spEstimate, spVerify}, []time.Duration{4 * ms, 30 * ms, 2 * ms})
	tot := aggregate(rec.spans)
	if tot.dur[spPlace] != 4*ms || tot.dur[spEstimate] != 16*ms || tot.dur[spVerify] != 0 {
		t.Errorf("phases %v %v %v, want 4ms 16ms 0", tot.dur[spPlace], tot.dur[spEstimate], tot.dur[spVerify])
	}
	if tot.self[spCoreRun] != 0 || tot.selfSumShare != 1 {
		t.Errorf("parent self %v share %v, want 0 and 1", tot.self[spCoreRun], tot.selfSumShare)
	}
}

// fakeClock is a clock a test moves by hand.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }
func (f *fakeClock) SleepUntil(t time.Duration) {
	if t > f.now {
		f.now = t
	}
}

func TestOpenScheduleHoldsAbsoluteDueTimes(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	sched := &openSchedule{due: []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms, 60 * ms}, end: 55 * ms, clk: clk}

	// One sender. Request 0 goes out when due.
	k, lag, ok := sched.claim()
	if !ok || k != 0 || clk.now != 10*ms || lag != 0 {
		t.Fatalf("claim 0: k=%d now=%v lag=%v ok=%v", k, clk.now, lag, ok)
	}
	// Its send stalls for 35 ms. Requests 1..3 fall due meanwhile.
	clk.now += 35 * ms
	// They are handed out at once, in order, not re-timed from the
	// wake-up: a latency taken from due[k] charges each the stall.
	for want := 1; want <= 3; want++ {
		k, lag, ok = sched.claim()
		if !ok || k != want || lag != 0 {
			t.Fatalf("claim %d: k=%d lag=%v ok=%v", want, k, lag, ok)
		}
		if late := clk.now - sched.due[k]; late != time.Duration(45-10*(want+1)+want-1)*ms {
			t.Errorf("request %d sent %v after it was due", k, late)
		}
		clk.now += ms // a healthy send
	}
	// The stall is over: request 4 goes out at its original due time,
	// not 35 ms late. Nothing drifted.
	k, lag, ok = sched.claim()
	if !ok || k != 4 || clk.now != 50*ms || lag != 0 {
		t.Fatalf("claim 4: k=%d now=%v lag=%v ok=%v", k, clk.now, lag, ok)
	}
	// Request 5 is due after the window's end: it is never sent, and
	// it is what the backlog counts.
	if k, _, ok = sched.claim(); ok {
		t.Fatalf("claimed request %d past the window's end", k)
	}
	if sched.backlog() != 1 {
		t.Errorf("backlog = %d, want 1", sched.backlog())
	}
}

// lateClock wakes every sleeper a fixed time late.
type lateClock struct {
	fakeClock
	late time.Duration
}

func (l *lateClock) SleepUntil(t time.Duration) { l.fakeClock.SleepUntil(t + l.late) }

func TestOpenScheduleReportsTimerLag(t *testing.T) {
	ms := time.Millisecond
	clk := &lateClock{late: 3 * ms}
	sched := &openSchedule{due: []time.Duration{10 * ms}, end: time.Second, clk: clk}
	if _, lag, ok := sched.claim(); !ok || lag != 3*ms {
		t.Errorf("lag = %v ok=%v, want 3ms", lag, ok)
	}
}

func TestPoissonScheduleIsSeededAndAscending(t *testing.T) {
	a := poissonSchedule(7, 1000, time.Second)
	b := poissonSchedule(7, 1000, time.Second)
	if len(a) < 800 || len(a) > 1200 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("arrival %d: %v vs %v (previous %v)", i, a[i], b[i], a[max(i-1, 0)])
		}
	}
}

func TestRequestsArePureFunctionsOfTheirCoordinates(t *testing.T) {
	shape := fullSizes.fanout.shape
	gen := func(seed uint64, name string, client, i int, stream bool) []byte {
		req, err := genRequest(streamSeed(seed, name, client, i), shape, 3, stream)
		if err != nil {
			t.Fatal(err)
		}
		return req.body
	}
	base := gen(1, "serve-fanout", 0, 5, false)
	// Generated in another order, after other requests: same bytes.
	_ = gen(9, "serve-small", 3, 0, true)
	if again := gen(1, "serve-fanout", 0, 5, false); !bytes.Equal(base, again) {
		t.Error("same (seed, workload, client, i), different bytes")
	}
	for name, other := range map[string][]byte{
		"seed":     gen(2, "serve-fanout", 0, 5, false),
		"workload": gen(1, "serve-small", 0, 5, false),
		"client":   gen(1, "serve-fanout", 1, 5, false),
		"i":        gen(1, "serve-fanout", 0, 6, false),
	} {
		if bytes.Equal(base, other) {
			t.Errorf("changing the %s left the bytes unchanged", name)
		}
	}
	// A batch body is one object holding the items a stream body
	// carries one a line.
	var batch wireBatch
	if err := json.Unmarshal(base, &batch); err != nil || len(batch.Requests) != 3 {
		t.Fatalf("batch body: %v, %d items", err, len(batch.Requests))
	}
	lines := bytes.Split(bytes.TrimSpace(gen(1, "serve-fanout", 0, 5, true)), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("stream body has %d lines, want 3", len(lines))
	}
	for k, line := range lines {
		want, err := json.Marshal(batch.Requests[k])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Errorf("stream line %d differs from batch item %d", k, k)
		}
	}
}

// TestSpansNestByCause drives a two-tier chain through the handler and
// transport wrappers: the middle tier makes two overlapping calls
// below, so nesting by time would be ambiguous; by cause it is not.
func TestSpansNestByCause(t *testing.T) {
	rec := newRecorder()
	leaf := httptest.NewServer(rec.handler(spServeHandler, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	})))
	defer leaf.Close()
	below := &http.Client{Transport: &tracingTransport{rec: rec, name: spClusterHop, base: http.DefaultTransport}}
	mid := httptest.NewServer(rec.handler(spClusterHandler, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, leaf.URL, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := below.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}()
		}
		wg.Wait()
	})))
	defer mid.Close()

	get := func(header string) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, mid.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(spanHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	get("") // untraced: must leave nothing behind
	if len(rec.spans) != 0 {
		t.Fatalf("a request without the header left %d spans", len(rec.spans))
	}
	root := spanRef{op: 4242, id: 4242}
	get(formatRef(root))

	byID := map[uint64]span{}
	var handlers, hops, leaves []span
	for _, s := range rec.spans {
		byID[s.id] = s
		if s.op != root.op {
			t.Errorf("span %s has op %d, want %d", spanNames[s.name], s.op, root.op)
		}
		switch s.name {
		case spClusterHandler:
			handlers = append(handlers, s)
		case spClusterHop:
			hops = append(hops, s)
		case spServeHandler:
			leaves = append(leaves, s)
		}
	}
	if len(handlers) != 1 || len(hops) != 2 || len(leaves) != 2 {
		t.Fatalf("%d handler, %d hop, %d leaf spans; want 1, 2, 2", len(handlers), len(hops), len(leaves))
	}
	if handlers[0].parent != root.id {
		t.Errorf("the tier's handler span hangs under %d, want the client's %d", handlers[0].parent, root.id)
	}
	seen := map[uint64]bool{}
	for _, l := range leaves {
		hop, ok := byID[l.parent]
		if !ok || hop.name != spClusterHop || hop.parent != handlers[0].id {
			t.Errorf("leaf span's parent chain is %v -> %v", l.parent, hop.parent)
		}
		if l.start < hop.start || l.end > hop.end {
			t.Errorf("callee [%v,%v] not inside its hop [%v,%v]", l.start, l.end, hop.start, hop.end)
		}
		seen[l.parent] = true
	}
	if len(seen) != 2 {
		t.Error("both leaf spans hang under the same hop")
	}
}

func TestRefRoundTrips(t *testing.T) {
	ref := spanRef{op: 0xdeadbeef, id: 17}
	if got, ok := parseRef(formatRef(ref)); !ok || got != ref {
		t.Errorf("parseRef(formatRef(%v)) = %v, %v", ref, got, ok)
	}
	for _, bad := range []string{"", "12", "x-1", "1-y", "-"} {
		if _, ok := parseRef(bad); ok {
			t.Errorf("parseRef(%q) accepted", bad)
		}
	}
}

func TestResultObjectNeedsEveryEndToEndMetric(t *testing.T) {
	res := newResult()
	res.attempted = 3
	for _, d := range endToEnd {
		res.metrics[d.Name] = 1.5
	}
	obj, err := resultObject(res, false)
	if err != nil || !obj.Correct || len(obj.Metrics) != len(endToEnd) {
		t.Fatalf("complete result: %v, %+v", err, obj)
	}
	delete(res.metrics, "setup_s")
	if _, err := resultObject(res, false); err == nil {
		t.Error("a result without setup_s was accepted")
	}
	// Traced, every per-layer metric is printed; the ones a workload
	// has no use for read 0.
	res.failed = 1
	obj, err = resultObject(res, true)
	if err != nil || obj.Correct || len(obj.Metrics) != len(perLayer) {
		t.Fatalf("traced result: %v, correct=%v, %d metrics", err, obj.Correct, len(obj.Metrics))
	}
}

// TestSpecMatchesBenchmarkJSON holds the metric and workload tables in
// spec.go and the committed BENCHMARK.json together.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q / %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in spec.go", kind, i, got[i], want[i])
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd)
	check("per-layer", file.PerLayer, perLayer)
}

func TestMetricTablesAreSortedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i, d := range defs {
			if i > 0 && defs[i-1].Name >= d.Name {
				t.Errorf("%s is out of order", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s is named twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestSmoke is -smoke: all six workloads (and the hand-run one) at toy
// sizes, traced and untraced, every output check on.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	start := time.Now()
	if err := runSmoke(context.Background(), &out, 1); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Logf("smoke took %v\n%s", time.Since(start), out.String())
}
