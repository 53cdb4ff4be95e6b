package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/front"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/wire"
)

// bootShards starts n in-process clusterd shards (each over one
// in-process schedd) for frontd to shard across.
func bootShards(t *testing.T, n int) []string {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		schedd := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(schedd.Close)
		c, err := cluster.New(cluster.Config{Backends: []string{schedd.URL}})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		t.Cleanup(c.Close)
		shard := httptest.NewServer(c.Handler())
		t.Cleanup(shard.Close)
		urls = append(urls, shard.URL)
	}
	return urls
}

// TestRunServesAndShutsDown boots frontd over two live clusterd
// shards, exercises every endpoint, and checks clean drain on context
// cancellation.
func TestRunServesAndShutsDown(t *testing.T) {
	cfg := front.Config{Shards: bootShards(t, 2)}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", cfg, 5*time.Second, ready)
	}()

	var base string
	select {
	case a := <-ready:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health proxy.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Shards) != 2 {
		t.Fatalf("healthz: %+v", health)
	}

	body := `{"requests":[
	  {"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}},
	  {"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}
	]}`
	resp, err = http.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var batch wire.Results
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(batch.Results) != 2 {
		t.Fatalf("batch: status %d results %d", resp.StatusCode, len(batch.Results))
	}
	for i, item := range batch.Results {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}

	resp, err = http.Post(base+"/v1/stream", "application/x-ndjson", strings.NewReader(
		`{"algorithm":"lpt-norestriction","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`+"\n"))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var item wire.Result
	if err := json.NewDecoder(resp.Body).Decode(&item); err != nil {
		t.Fatalf("stream decode: %v", err)
	}
	resp.Body.Close()
	if item.Error != "" || item.Response == nil {
		t.Fatalf("stream item: %+v", item)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestRunRejectsBadConfig surfaces configuration errors instead of
// hanging the daemon.
func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(context.Background(), "127.0.0.1:0",
		front.Config{}, time.Second, nil); err == nil {
		t.Fatal("accepted empty shard list")
	}
	if err := run(context.Background(), "127.0.0.1:0",
		front.Config{Shards: []string{"http://a", "http://a"}}, time.Second, nil); err == nil {
		t.Fatal("accepted duplicate shard names")
	}
	if err := run(context.Background(), "256.256.256.256:99999",
		front.Config{Shards: bootShards(t, 1)}, time.Second, nil); err == nil {
		t.Fatal("accepted bad listen address")
	}
}

func TestSplitShards(t *testing.T) {
	got := wire.SplitURLs(" http://a:9090/ ,, http://b:9090 ,")
	want := []string{"http://a:9090", "http://b:9090"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire.SplitURLs = %v, want %v", got, want)
	}
}
