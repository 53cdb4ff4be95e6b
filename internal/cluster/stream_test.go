package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"repro/internal/proxy"
	"repro/internal/serve"
	"strings"
	"testing"
)

// streamPost submits NDJSON to a mounted cluster handler and returns
// the decoded result lines.
func streamPost(t *testing.T, url, body string) (*http.Response, []Item) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []Item
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item Item
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		items = append(items, item)
	}
	return resp, items
}

// streamLines renders batch items as NDJSON input.
func streamLines(req *BatchRequest) string {
	var sb strings.Builder
	for i := range req.Requests {
		b, err := json.Marshal(&req.Requests[i])
		if err != nil {
			panic(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestClusterStreamOrderedResults(t *testing.T) {
	backends, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true, Tier: proxy.Config{Workers: 3}})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	req := testBatch(8)
	resp, items := streamPost(t, ts.URL+"/v1/stream", streamLines(req))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if len(items) != 8 {
		t.Fatalf("got %d items, want 8", len(items))
	}
	for i, item := range items {
		if item.Index != i {
			t.Fatalf("item %d has index %d (stream out of order)", i, item.Index)
		}
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d failed: %+v", i, item)
		}
	}
	// Exactly-once under disabled hedging: every item executed once
	// across the pool.
	total := map[string]int{}
	for _, b := range backends {
		for k, v := range b.executions() {
			total[k] += v
		}
	}
	for i := 0; i < 8; i++ {
		if total[itoa(i)] != 1 {
			t.Fatalf("item %d executed %d times: %v", i, total[itoa(i)], total)
		}
	}
}

// TestClusterStreamMatchesBatch pins the proxy-level metamorphic
// contract: the same items streamed and batched produce byte-identical
// backend responses, item for item (both paths carry the backend body
// verbatim).
func TestClusterStreamMatchesBatch(t *testing.T) {
	_, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true, Strategy: "none"})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	req := testBatch(6)
	_, streamItems := streamPost(t, ts.URL+"/v1/stream", streamLines(req))

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(streamItems) != len(batch.Results) {
		t.Fatalf("stream %d items vs batch %d", len(streamItems), len(batch.Results))
	}
	for i := range streamItems {
		if string(streamItems[i].Response) != string(batch.Results[i].Response) {
			t.Fatalf("item %d diverges:\nstream %s\nbatch  %s",
				i, streamItems[i].Response, batch.Results[i].Response)
		}
	}
}

func TestClusterStreamPerItemErrors(t *testing.T) {
	_, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	lines := streamLines(testBatch(1)) +
		"{not json}\n" +
		`{"algorithm":"nope","instance":{"m":1,"alpha":1,"estimates":[1]}}` + "\n" +
		streamLines(testBatch(1))
	_, items := streamPost(t, ts.URL+"/v1/stream", lines)
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4: %+v", len(items), items)
	}
	if items[0].Error != "" || items[3].Error != "" {
		t.Fatalf("valid items failed: %+v", items)
	}
	if items[1].Error == "" {
		t.Fatal("bad JSON line not reported")
	}
	if items[2].Error == "" {
		t.Fatal("unknown algorithm not reported")
	}
}

func TestClusterStreamStrategyOverride(t *testing.T) {
	backends, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true, Strategy: "all"})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// group:2 over 2 backends is singleton groups: items alternate by
	// least estimated load, so both backends must see work.
	req := testBatch(6)
	_, items := streamPost(t, ts.URL+"/v1/stream?strategy=group:2", streamLines(req))
	if len(items) != 6 {
		t.Fatalf("got %d items", len(items))
	}
	for _, item := range items {
		if item.Error != "" {
			t.Fatalf("item failed: %+v", item)
		}
	}
	for i, b := range backends {
		if len(b.executions()) == 0 {
			t.Fatalf("backend %d idle under group:2 streaming", i)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/stream?strategy=group:3", "application/x-ndjson",
		strings.NewReader(streamLines(req)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy accepted: status %d", resp.StatusCode)
	}
}

func TestClusterStreamItemCap(t *testing.T) {
	_, urls := newTestBackends(t, 1, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true, Tier: proxy.Config{MaxStreamItems: 2}})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	_, items := streamPost(t, ts.URL+"/v1/stream", streamLines(testBatch(4)))
	if len(items) != 3 {
		t.Fatalf("got %d items, want 2 results + 1 cap error: %+v", len(items), items)
	}
	if items[0].Error != "" || items[1].Error != "" {
		t.Fatalf("capped stream lost valid items: %+v", items)
	}
	if !strings.Contains(items[2].Error, "exceeds 2 items") {
		t.Fatalf("cap error missing: %+v", items[2])
	}
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// TestClusterStreamLongBody regression-tests stream truncation at the
// proxy: the dispatcher reads the request body while result lines are
// being written, so without full-duplex mode the HTTP/1.x server
// closes the unread body at the first response write and long streams
// silently lose their tail.
func TestClusterStreamLongBody(t *testing.T) {
	_, urls := newTestBackends(t, 2, serve.Config{})
	c := mustCluster(t, Config{Backends: urls, DisableHedging: true, Tier: proxy.Config{Workers: 2}})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	const n = 120
	req := testBatch(n)
	resp, items := streamPost(t, ts.URL+"/v1/stream", streamLines(req))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(items) != n {
		t.Fatalf("stream truncated: %d result lines for %d inputs", len(items), n)
	}
	for i, item := range items {
		if item.Index != i || item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
}
