package cluster

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The chaos harness: an in-process cluster of loopback schedd backends
// whose fault injectors are flipped mid-batch. Run with -race; the
// dispatcher, probers, hedges, and the kill goroutine all interleave.
//
// Invariants asserted, mirroring sim.FlatOptions.Failures at the
// network layer:
//
//  1. exactly-once completion — no item is *executed* to a 200 more
//     than once across the pool (hedging is off, so duplicates could
//     only come from dispatch bugs);
//  2. results come back in input order with Index == position;
//  3. no item is lost while its replica group keeps >= 1 live member
//     (ErrUnsurvivable's negation).

// chaosBatch builds a batch whose per-item solver work is trivial; the
// injected backend delay is what keeps items in flight long enough for
// kills to land mid-batch.
func chaosBatch(k int) *BatchRequest {
	return testBatch(k)
}

func runChaosBatch(t *testing.T, c *proxy.Tier, req *BatchRequest, timeout time.Duration) *BatchResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := c.RunBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// assertExactlyOnce sums 200-executions per item across the pool and
// fails on any duplicate, any miss, and any out-of-order index.
func assertExactlyOnce(t *testing.T, bs []*testBackend, resp *BatchResponse, n int) {
	t.Helper()
	if len(resp.Results) != n {
		t.Fatalf("%d results for %d items", len(resp.Results), n)
	}
	execs := map[string]int{}
	for _, b := range bs {
		for item, cnt := range b.executions() {
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

// TestChaosKillAndRestartMidBatch runs group:2 over four backends and
// kills one member of each group mid-batch, restarting them before the
// deadline. Every group keeps a live member throughout, so every item
// must complete exactly once, in order.
func TestChaosKillAndRestartMidBatch(t *testing.T) {
	bs, urls := newTestBackends(t, 4, serve.Config{})
	for _, b := range bs {
		b.delay.Store(int64(3 * time.Millisecond)) // keep items in flight
	}
	c := mustCluster(t, Config{
		Backends:       urls,
		Strategy:       "group:2",
		DisableHedging: true, // exactly-once accounting needs single dispatch
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:     1,
				BaseBackoff:   5 * time.Millisecond,
				ProbeInterval: 10 * time.Millisecond,
			},
		},
	})
	c.Start(context.Background())

	const n = 60
	req := chaosBatch(n)

	// Kill schedule: one backend per group goes down mid-batch and
	// comes back shortly after. Groups are {0,1} and {2,3}.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		bs[0].down.Store(true)
		bs[3].down.Store(true)
		time.Sleep(60 * time.Millisecond)
		bs[0].down.Store(false)
		bs[3].down.Store(false)
	}()

	resp := runChaosBatch(t, c, req, 30*time.Second)
	wg.Wait()
	assertExactlyOnce(t, bs, resp, n)
}

// TestChaosRollingKills cycles a kill across every backend of a
// 3-backend full-replication pool. At any instant two members live, so
// nothing may be lost.
func TestChaosRollingKills(t *testing.T) {
	bs, urls := newTestBackends(t, 3, serve.Config{})
	for _, b := range bs {
		b.delay.Store(int64(2 * time.Millisecond))
	}
	c := mustCluster(t, Config{
		Backends:       urls,
		Strategy:       "all",
		DisableHedging: true,
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:     1,
				BaseBackoff:   5 * time.Millisecond,
				ProbeInterval: 10 * time.Millisecond,
			},
		},
	})
	c.Start(context.Background())

	const n = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 2; round++ {
			for i := range bs {
				bs[i].down.Store(true)
				time.Sleep(15 * time.Millisecond)
				bs[i].down.Store(false)
			}
		}
	}()

	resp := runChaosBatch(t, c, chaosBatch(n), 30*time.Second)
	wg.Wait()
	assertExactlyOnce(t, bs, resp, n)
}

// TestChaosWholeGroupDownIsReported kills both members of one group
// permanently: its items must be reported as errors naming the dead
// replica set — never silently dropped or misordered — while the other
// group's items all complete.
func TestChaosWholeGroupDownIsReported(t *testing.T) {
	bs, urls := newTestBackends(t, 4, serve.Config{})
	bs[2].down.Store(true)
	bs[3].down.Store(true)
	c := mustCluster(t, Config{
		Backends:       urls,
		Strategy:       "group:2",
		DisableHedging: true,
		Tier: proxy.Config{
			// Dead-group items spin until the deadline; give the fan-out
			// enough workers that they cannot starve the live group's items.
			Workers: 16,
			Upstream: wire.UpstreamConfig{
				Threshold:   1,
				BaseBackoff: 5 * time.Millisecond,
			},
		},
	})

	req := chaosBatch(8)
	sets, err := c.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := c.RunBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	deadGroup := 0
	for i, item := range resp.Results {
		if item.Index != i {
			t.Fatalf("result %d has index %d", i, item.Index)
		}
		onDead := sets[i][0] == 2
		switch {
		case onDead && item.Error == "":
			t.Errorf("item %d completed on a dead group", i)
		case onDead:
			deadGroup++
		case item.Error != "" || item.Response == nil:
			t.Errorf("item %d on the live group failed: %+v", i, item)
		}
	}
	if deadGroup == 0 {
		t.Fatal("placement never used the dead group; test exercised nothing")
	}
	// Exactly-once still holds for what did run.
	execs := map[string]int{}
	for _, b := range bs {
		for item, cnt := range b.executions() {
			execs[item] += cnt
		}
	}
	for item, cnt := range execs {
		if cnt != 1 {
			t.Errorf("item %s executed %d times", item, cnt)
		}
	}
}

// TestChaosConcurrentBatches hammers the dispatcher with overlapping
// batches while one backend flaps, checking order and completeness per
// batch (exactly-once cannot be asserted across batches because item
// headers collide, by design — indices restart per batch).
func TestChaosConcurrentBatches(t *testing.T) {
	bs, urls := newTestBackends(t, 3, serve.Config{})
	c := mustCluster(t, Config{
		Backends:       urls,
		Strategy:       "all",
		DisableHedging: true,
		Tier: proxy.Config{
			Upstream: wire.UpstreamConfig{
				Threshold:     1,
				BaseBackoff:   5 * time.Millisecond,
				ProbeInterval: 10 * time.Millisecond,
			},
		},
	})
	c.Start(context.Background())

	stop := make(chan struct{})
	var flap sync.WaitGroup
	flap.Add(1)
	go func() {
		defer flap.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			bs[1].down.Store(true)
			time.Sleep(8 * time.Millisecond)
			bs[1].down.Store(false)
			time.Sleep(8 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := runChaosBatch(t, c, chaosBatch(16), 30*time.Second)
			for i, item := range resp.Results {
				if item.Index != i {
					t.Errorf("result %d has index %d", i, item.Index)
				}
				if item.Error != "" || item.Response == nil {
					t.Errorf("item %d lost with 2 live replicas: %+v", i, item)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flap.Wait()

	// Sanity: results are real schedule responses.
	resp := runChaosBatch(t, c, chaosBatch(1), 10*time.Second)
	var sched struct {
		Makespan float64 `json:"makespan"`
	}
	if err := json.Unmarshal(resp.Results[0].Response, &sched); err != nil || sched.Makespan <= 0 {
		t.Fatalf("response payload not a schedule: %v %v", err, sched)
	}
}
