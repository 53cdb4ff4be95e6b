package front

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
)

// Admission-control properties, pinned with the obs gauges:
//
//  1. work beyond AdmitMax is rejected NOW with 429 + Retry-After
//     (batch) or an in-band shed line (stream) — never queued;
//  2. every submitted item is accounted for: completed + shed = total,
//     and front.shed moves by exactly the shed count;
//  3. the in-flight accounting drains to zero — front.inflight and
//     every front.shard.*.inflight gauge return to their starting
//     level once the traffic stops.

// TestAdmissionBatchShedsWith429 sends a batch larger than AdmitMax:
// it must be rejected whole, immediately, with the configured
// Retry-After hint, and front.shed must count every item of it.
func TestAdmissionBatchShedsWith429(t *testing.T) {
	_, urls := newTestShards(t, 1)
	f := mustFront(t, Config{Shards: urls, AdmitMax: 4, RetryAfterHint: 2 * time.Second})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	shedBefore, inflightBefore := mShed.Load(), gInflight.Load()
	const n = 5 // > AdmitMax: sheds with zero concurrency needed
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(frontBatch(n)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want %q", got, "2")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v; shed-before-queue must not wait", elapsed)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("shed body not an error envelope: %v %+v", err, e)
	}
	if got := mShed.Load() - shedBefore; got != n {
		t.Fatalf("front.shed moved by %d, want %d", got, n)
	}
	if got := gInflight.Load() - inflightBefore; got != 0 {
		t.Fatalf("admission level %d after shed, want 0", got)
	}
}

// TestAdmissionCapNeverExceededAndDrains floods a tiny-cap front with
// concurrent requests against slow shards: the admitted level must
// never exceed AdmitMax while the flood runs, every request must
// resolve as completed or shed, and all in-flight accounting must
// return to its starting level afterwards.
func TestAdmissionCapNeverExceededAndDrains(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	for _, s := range shards {
		s.delay.Store(int64(10 * time.Millisecond))
	}
	const cap = 3
	f := mustFront(t, Config{Shards: urls, AdmitMax: cap, ShardInflight: 0, Tier: proxy.Config{Workers: 8}})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	shedBefore := mShed.Load()
	inflightBefore := gInflight.Load()
	shardTotalBefore := gShardTotal.Load()

	// Sampler: watch the admission level while the flood runs.
	stop := make(chan struct{})
	var maxSeen int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := gInflight.Load() - inflightBefore; v > maxSeen {
				maxSeen = v
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	const n = 24
	req := frontBatch(n)
	var mu sync.Mutex
	completed, shed := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			one := &BatchRequest{Requests: req.Requests[i : i+1]}
			if err := json.NewEncoder(&buf).Encode(one); err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &buf)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				completed++
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Errorf("item %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()

	if completed+shed != n {
		t.Fatalf("completed %d + shed %d != %d submitted", completed, shed, n)
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	if maxSeen > cap {
		t.Fatalf("admission level reached %d, cap is %d", maxSeen, cap)
	}
	if got := mShed.Load() - shedBefore; got != int64(shed) {
		t.Fatalf("front.shed moved by %d, %d shed responses observed", got, shed)
	}
	// Drain: every level and gauge back where it started.
	if got := gInflight.Load(); got != inflightBefore {
		t.Fatalf("front.inflight %d after drain, started at %d", got, inflightBefore)
	}
	if got := gShardTotal.Load(); got != shardTotalBefore {
		t.Fatalf("front.shard_inflight %d after drain, started at %d", got, shardTotalBefore)
	}
	for i, s := range f.Upstreams() {
		if got := s.Inflight(); got != 0 {
			t.Fatalf("shard %d inflight %d after drain", i, got)
		}
	}
}

// TestAdmissionStreamShedsInBand drives a stream into a 1-slot
// admission cap over a slow shard: overflowing lines must resolve as
// in-band shed errors naming the retry hint, completed + shed must
// cover every line, and the order must hold throughout.
func TestAdmissionStreamShedsInBand(t *testing.T) {
	shards, urls := newTestShards(t, 1)
	shards[0].delay.Store(int64(20 * time.Millisecond))
	f := mustFront(t, Config{Shards: urls, AdmitMax: 1, ShardInflight: 0, Tier: proxy.Config{Workers: 8}})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	shedBefore, inflightBefore := mShed.Load(), gInflight.Load()
	const n = 8
	req := frontBatch(n)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range req.Requests {
		if err := enc.Encode(&req.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	completed, shed := 0, 0
	idx := 0
	for dec.More() {
		var it Item
		if err := dec.Decode(&it); err != nil {
			t.Fatal(err)
		}
		if it.Index != idx {
			t.Fatalf("line %d has index %d: order broken", idx, it.Index)
		}
		idx++
		switch {
		case it.Error == "" && it.Response != nil:
			completed++
		case strings.HasPrefix(it.Error, "shed:"):
			if !strings.Contains(it.Error, "retry after") {
				t.Fatalf("shed line carries no retry hint: %q", it.Error)
			}
			shed++
		default:
			t.Fatalf("line %d unaccounted: %+v", it.Index, it)
		}
	}
	if completed+shed != n {
		t.Fatalf("completed %d + shed %d != %d lines", completed, shed, n)
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	if shed == 0 {
		t.Fatal("nothing shed; the cap never bound and the test exercised nothing")
	}
	if got := mShed.Load() - shedBefore; got != int64(shed) {
		t.Fatalf("front.shed moved by %d, %d shed lines observed", got, shed)
	}
	if got := gInflight.Load() - inflightBefore; got != 0 {
		t.Fatalf("admission level %d after stream drained", got)
	}
}

// TestShardInflightCapSheds pins the per-shard discipline directly at
// the dispatch layer: a shard sitting at its in-flight cap sheds the
// item (capacity does not re-route), and the error names the shard and
// the hint.
func TestShardInflightCapSheds(t *testing.T) {
	shards, urls := newTestShards(t, 1)
	f := mustFront(t, Config{Shards: urls, ShardInflight: 1})
	// Pin the only shard at its cap with one slow item in flight (the
	// delay also bounds how long the test server's Close waits).
	shards[0].delay.Store(int64(500 * time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan struct{})
	go func() {
		defer close(held)
		_, _ = f.RunBatch(ctx, frontBatch(1))
	}()
	defer func() { cancel(); <-held }()
	for f.Upstreams()[0].Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	shedBefore := mShed.Load()
	req := frontBatch(1)
	resp, err := f.RunBatch(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	item := resp.Results[0]
	if !strings.HasPrefix(item.Error, "shed: shard 0 at in-flight cap") {
		t.Fatalf("item not shed at the shard cap: %+v", item)
	}
	if got := mShed.Load() - shedBefore; got != 1 {
		t.Fatalf("front.shed moved by %d, want 1", got)
	}
}

// TestDisableSheddingAdmitsEverything: transparency mode must never
// shed, whatever the load.
func TestDisableSheddingAdmitsEverything(t *testing.T) {
	shards, urls := newTestShards(t, 1)
	shards[0].delay.Store(int64(2 * time.Millisecond))
	f := mustFront(t, Config{Shards: urls, AdmitMax: 1, DisableShedding: true, Tier: proxy.Config{Workers: 8}})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	shedBefore := mShed.Load()
	const n = 12
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(frontBatch(n)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i, item := range br.Results {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d rejected in no-shed mode: %+v", i, item)
		}
	}
	if got := mShed.Load() - shedBefore; got != 0 {
		t.Fatalf("front.shed moved by %d in no-shed mode", got)
	}
}
