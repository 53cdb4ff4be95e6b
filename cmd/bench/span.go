package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spClient spanName = iota
	spFrontHandler
	spFrontHop
	spClusterHandler
	spClusterHop
	spServeHandler
	spCoreRun
	spCoreOpen
	spMemRun
	spPlace
	spValidate
	spOrder
	spVerify
	spEstimate
	spABO
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "front.handler", "front.hop", "cluster.handler",
	"cluster.hop", "serve.handler", "core.run", "core.open", "core.memaware",
	"algo.place", "placement.validate", "algo.order", "sched.verify",
	"opt.estimate", "memaware.abo",
}

// span is one timed interval at a layer boundary. parent is the span
// that caused it (0 for the root of an op) and op is the id every span
// of one request or library call shares.
type span struct {
	id, parent, op uint64
	name           spanName
	start, end     time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. Only the harness
// records: around library calls, and in the handler and transport
// wrappers mounted on each serving tier.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addPhases records replayed phase durations as consecutive children
// of parent, starting at its start and clipped to its end. The library
// workloads time a whole call and then replay its phases one by one;
// laying the replays out inside the parent lets the ordinary self-time
// rule give the remainder to whatever was not replayed.
func (r *recorder) addPhases(parent span, names []spanName, durs []time.Duration) {
	at := parent.start
	for i, name := range names {
		end := min(at+durs[i], parent.end)
		r.add(span{id: r.newID(), parent: parent.id, op: parent.op, name: name, start: at, end: end})
		at = end
	}
}

// spanRef is what travels between tiers: the op and the span that
// causes whatever happens next.
type spanRef struct{ op, id uint64 }

// spanHeader carries a spanRef across a hop.
const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

func formatRef(ref spanRef) string {
	return strconv.FormatUint(ref.op, 16) + "-" + strconv.FormatUint(ref.id, 16)
}

func parseRef(s string) (spanRef, bool) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return spanRef{}, false
	}
	op, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}, false
	}
	return spanRef{op: op, id: id}, true
}

// handler wraps a tier's Handler: a request that carries a span header
// gets a span parented on the header's span, and the span's id rides
// the request context so the tier's outbound calls can name their
// cause. Requests without the header (health probes, untraced
// segments) pass through untouched.
func (r *recorder) handler(name spanName, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ref, ok := parseRef(req.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		id, start := r.newID(), r.now()
		ctx := context.WithValue(req.Context(), spanCtxKey{}, spanRef{op: ref.op, id: id})
		next.ServeHTTP(w, req.WithContext(ctx))
		r.add(span{id: id, parent: ref.id, op: ref.op, name: name, start: start, end: r.now()})
	})
}

// transport wraps a tier's outbound Transport: it reads the causing
// span from the outbound request's context (every tier derives that
// context from the inbound one), opens a hop span under it, and
// forwards the hop's id in the header. The hop ends when the response
// body has been read to the end, so the callee's whole answer is
// inside it; hops therefore nest by cause, not by time.
type tracingTransport struct {
	rec  *recorder
	name spanName
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := span{id: t.rec.newID(), parent: ref.id, op: ref.op, name: t.name, start: t.rec.now()}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, formatRef(spanRef{op: ref.op, id: sp.id}))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.end = t.rec.now()
		t.rec.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close, whichever the
// caller reaches first.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   span
	done atomic.Bool
}

func (b *spanBody) finish() {
	if b.done.CompareAndSwap(false, true) {
		b.sp.end = b.rec.now()
		b.rec.add(b.sp)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (their union, so overlapping
// children are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	type interval struct{ start, end time.Duration }
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if p, ok := index[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], interval{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
		covered, at := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, at), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// layerTotals is the per-name aggregate of a span set.
type layerTotals struct {
	count [numSpanNames]int
	dur   [numSpanNames]time.Duration
	self  [numSpanNames]time.Duration
	// selfSumShare is, over all ops, the sum of every span's self time
	// divided by the sum of the root spans' durations: 1 when children
	// nest inside their parents and run one after another, above 1 by
	// the amount of work an op ran in parallel (fan-out, hedges).
	selfSumShare float64
}

func aggregate(spans []span) layerTotals {
	var t layerTotals
	self := selfTimes(spans)
	var selfSum, rootSum time.Duration
	for i, s := range spans {
		t.count[s.name]++
		t.dur[s.name] += s.end - s.start
		t.self[s.name] += self[i]
		selfSum += self[i]
		if s.parent == 0 {
			rootSum += s.end - s.start
		}
	}
	t.selfSumShare = ratio(float64(selfSum), float64(rootSum))
	return t
}

// meanSelf and meanDur are per-span means in the given unit.
func (t *layerTotals) meanSelf(name spanName, unit time.Duration) float64 {
	return ratio(float64(t.self[name])/float64(unit), float64(t.count[name]))
}

func (t *layerTotals) meanDur(name spanName, unit time.Duration) float64 {
	return ratio(float64(t.dur[name])/float64(unit), float64(t.count[name]))
}

// writeSpans writes the recorded spans as CSV, one span a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,op,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.name], s.id, s.parent, s.op,
			s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
