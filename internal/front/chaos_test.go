package front

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/wire"
)

// The front-tier chaos layer: whole clusterd shards are killed
// (fail-stop, connections dropped before any work) and restarted while
// batches and streams are in flight. Run with -race; the dispatcher,
// shard probers, and the kill goroutine all interleave.
//
// Invariants asserted, lifting the cluster chaos contract one tier up:
//
//  1. zero lost items — killing one shard of N re-routes its keys to
//     ring successors; every item completes (shedding disabled, so
//     nothing may be rejected either);
//  2. exactly-once dispatch — no item is 200-completed by more than
//     one shard (clusterd hedging is off in the harness, so duplicates
//     could only come from front re-dispatch bugs);
//  3. results arrive in input order with Index == position;
//  4. a restarted shard is readmitted by the probers and serves again.

// chaosFrontConfig is the aggressive-failover config every chaos test
// uses: first failure kills a shard, probes readmit it quickly, and
// shedding is off so loss cannot hide behind a legitimate rejection.
func chaosFrontConfig(urls []string) Config {
	return Config{
		Shards:          urls,
		DisableShedding: true,
		Tier: proxy.Config{Upstream: wire.UpstreamConfig{
			Threshold:     1,
			BaseBackoff:   5 * time.Millisecond,
			MaxBackoff:    50 * time.Millisecond,
			ProbeInterval: 10 * time.Millisecond,
		}},
	}
}

// assertFrontExactlyOnce checks all three batch invariants at once.
func assertFrontExactlyOnce(t *testing.T, shards []*testShard, resp *BatchResponse, n int) {
	t.Helper()
	if len(resp.Results) != n {
		t.Fatalf("%d results for %d items", len(resp.Results), n)
	}
	execs := map[string]int{}
	for _, s := range shards {
		for item, cnt := range s.executions() {
			execs[item] += cnt
		}
	}
	for i, item := range resp.Results {
		if item.Index != i {
			t.Fatalf("result %d has index %d: order broken", i, item.Index)
		}
		if item.Error != "" || item.Response == nil {
			t.Errorf("item %d lost: %+v", i, item)
			continue
		}
		if got := execs[strconv.Itoa(i)]; got != 1 {
			t.Errorf("item %d executed %d times, want exactly once", i, got)
		}
	}
}

// TestChaosShardKillMidBatch kills one of three shards while a batch
// is in flight: its keys must re-route to ring successors with zero
// loss and exactly-once completion.
func TestChaosShardKillMidBatch(t *testing.T) {
	shards, urls := newTestShards(t, 3)
	for _, s := range shards {
		s.delay.Store(int64(3 * time.Millisecond)) // keep items in flight
	}
	f := mustFront(t, chaosFrontConfig(urls))
	f.Start(context.Background())

	const n = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		shards[1].down.Store(true)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := f.RunBatch(ctx, frontBatch(n))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertFrontExactlyOnce(t, shards, resp, n)
	if mRerouted.Load() == 0 {
		t.Error("no item was rerouted; the kill landed after the batch drained")
	}
}

// TestChaosShardKillAndRestartMidBatch cycles a kill through a larger
// batch: the shard dies mid-flight and comes back before the end.
// Everything must still complete exactly once, and the restarted shard
// must be readmitted.
func TestChaosShardKillAndRestartMidBatch(t *testing.T) {
	shards, urls := newTestShards(t, 3)
	for _, s := range shards {
		s.delay.Store(int64(2 * time.Millisecond))
	}
	f := mustFront(t, chaosFrontConfig(urls))
	f.Start(context.Background())

	const n = 80
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		shards[0].down.Store(true)
		time.Sleep(40 * time.Millisecond)
		shards[0].down.Store(false)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := f.RunBatch(ctx, frontBatch(n))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertFrontExactlyOnce(t, shards, resp, n)

	// Readmission: the probers must bring shard 0 back to live.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.Upstreams()[0].State(time.Now()) == wire.StateClosed {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("restarted shard was never readmitted")
}

// TestChaosShardKillMidStream kills a shard while an NDJSON stream is
// in flight: every line must come back in input order, none lost, each
// executed exactly once.
func TestChaosShardKillMidStream(t *testing.T) {
	shards, urls := newTestShards(t, 3)
	for _, s := range shards {
		s.delay.Store(int64(3 * time.Millisecond))
	}
	f := mustFront(t, chaosFrontConfig(urls))
	f.Start(context.Background())
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	const n = 60
	req := frontBatch(n)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range req.Requests {
		if err := enc.Encode(&req.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		shards[2].down.Store(true)
	}()

	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var items []Item
	for dec.More() {
		var it Item
		if err := dec.Decode(&it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	wg.Wait()
	br := &BatchResponse{Results: items}
	assertFrontExactlyOnce(t, shards, br, n)
}

// TestChaosAllShardsDeadThenRestart kills the whole tier under a
// batch, then restarts one shard: items must park (not fail) while
// everything is dead and complete once capacity returns.
func TestChaosAllShardsDeadThenRestart(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	f := mustFront(t, chaosFrontConfig(urls))
	f.Start(context.Background())

	for _, s := range shards {
		s.down.Store(true)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		shards[0].down.Store(false)
	}()

	const n = 10
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := f.RunBatch(ctx, frontBatch(n))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, item := range resp.Results {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d lost across full-tier outage: %+v", i, item)
		}
	}
}

// TestChaosPermanentTierDeathIsReported kills every shard for good: a
// batch under a short deadline must fail loudly per item — "no live
// shard" — never hang or drop results.
func TestChaosPermanentTierDeathIsReported(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	for _, s := range shards {
		s.down.Store(true)
	}
	f := mustFront(t, chaosFrontConfig(urls))

	const n = 6
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	resp, err := f.RunBatch(ctx, frontBatch(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != n {
		t.Fatalf("%d results for %d items", len(resp.Results), n)
	}
	for i, item := range resp.Results {
		if item.Index != i {
			t.Fatalf("result %d has index %d", i, item.Index)
		}
		if item.Error == "" {
			t.Fatalf("item %d reported success on a dead tier", i)
		}
		if !strings.Contains(item.Error, "no live shard") && !strings.Contains(item.Error, "cancelled") {
			t.Fatalf("item %d error does not name the outage: %q", i, item.Error)
		}
	}
}

// TestChaosShedAccountingUnderKill floods a front whose caps are tiny
// while one shard is dead: every submitted item must be accounted for
// — completed, failed with a reason, or shed — and the front.shed
// counter must match the number of shed responses exactly.
func TestChaosShedAccountingUnderKill(t *testing.T) {
	shards, urls := newTestShards(t, 2)
	for _, s := range shards {
		s.delay.Store(int64(5 * time.Millisecond))
	}
	shards[1].down.Store(true)
	f := mustFront(t, Config{
		Shards:        urls,
		AdmitMax:      1024, // global cap out of the way: this test pins the per-shard cap
		ShardInflight: 2,
		Tier: proxy.Config{
			Workers:  16,
			Upstream: wire.UpstreamConfig{Threshold: 1, BaseBackoff: 50 * time.Millisecond},
		},
	})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	shedBefore := mShed.Load()
	const n = 40
	req := frontBatch(n)
	completed, shed := 0, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range req.Requests {
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
			var br BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if len(br.Results) == 1 && br.Results[0].Error == "" {
				completed++
			} else if len(br.Results) == 1 && strings.HasPrefix(br.Results[0].Error, "shed:") {
				shed++
			} else {
				t.Errorf("item %d unaccounted: %+v", i, br.Results)
			}
		}(i)
	}
	wg.Wait()
	if completed+shed != n {
		t.Fatalf("completed %d + shed %d != %d submitted", completed, shed, n)
	}
	if completed == 0 {
		t.Fatal("nothing completed; the cap shed everything")
	}
	if got := mShed.Load() - shedBefore; got != int64(shed) {
		t.Fatalf("front.shed moved by %d, %d shed responses observed", got, shed)
	}
}
