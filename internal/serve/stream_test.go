package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postNDJSON submits body to path and returns the decoded result
// lines.
func postNDJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []StreamItem) {
	t.Helper()
	resp, data := post(t, ts, path, body)
	var items []StreamItem
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var item StreamItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		items = append(items, item)
	}
	return resp, items
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lines := []string{
		validSchedule,
		`{"algorithm":"nope","instance":{"m":1,"alpha":1,"estimates":[1]}}`, // solver rejection
		``, // blank: skipped, not counted
		`{not json}`,
		`{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`,
	}
	resp, items := postNDJSON(t, ts, "/v1/stream", strings.Join(lines, "\n")+"\n")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4: %+v", len(items), items)
	}
	for i, item := range items {
		if item.Index != i {
			t.Fatalf("item %d has index %d (out of order)", i, item.Index)
		}
	}
	// A line's response is a /v1/schedule body, carried as bytes.
	response := func(i int) (resp ScheduleResponse) {
		t.Helper()
		if err := json.Unmarshal(items[i].Response, &resp); err != nil {
			t.Fatalf("item %d response %q: %v", i, items[i].Response, err)
		}
		return resp
	}
	if response(0).Algorithm != "LPT-NoRestriction" {
		t.Fatalf("item 0: %+v", items[0])
	}
	if items[1].Error == "" || items[1].Response != nil {
		t.Fatalf("item 1 should be a solver rejection: %+v", items[1])
	}
	if items[2].Error == "" || items[2].Response != nil {
		t.Fatalf("item 2 should be a decode error: %+v", items[2])
	}
	if response(3).Makespan <= 0 {
		t.Fatalf("item 3: %+v", items[3])
	}
}

// TestStreamMatchesBatch pins the metamorphic contract: the same items
// submitted as one batch and as a stream produce identical responses,
// item for item.
func TestStreamMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []string{
		validSchedule,
		`{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[3,1,2]}}`,
		`{"algorithm":"ls-group:2","instance":{"m":4,"alpha":2,"estimates":[5,3,9,1,7,5,2,8]}}`,
	}
	_, streamItems := postNDJSON(t, ts, "/v1/stream", strings.Join(reqs, "\n"))

	batchBody := `{"requests":[` + strings.Join(reqs, ",") + `]}`
	resp, data := post(t, ts, "/v1/batch", batchBody)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var batch BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(streamItems) != len(batch.Results) {
		t.Fatalf("stream %d items vs batch %d", len(streamItems), len(batch.Results))
	}
	for i := range streamItems {
		sj, _ := json.Marshal(streamItems[i].Response)
		bj, _ := json.Marshal(batch.Results[i].Response)
		if string(sj) != string(bj) {
			t.Fatalf("item %d diverges:\nstream %s\nbatch  %s", i, sj, bj)
		}
	}
}

func TestStreamItemCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStreamItems: 2})
	body := strings.Repeat(validSchedule+"\n", 4)
	_, items := postNDJSON(t, ts, "/v1/stream", body)
	if len(items) != 3 {
		t.Fatalf("got %d items, want 2 results + 1 cap error: %+v", len(items), items)
	}
	if items[0].Response == nil || items[1].Response == nil {
		t.Fatalf("capped stream lost valid items: %+v", items)
	}
	if !strings.Contains(items[2].Error, "exceeds 2 items") {
		t.Fatalf("cap error missing: %+v", items[2])
	}
}

// TestStreamLongBodyFullDuplex regression-tests stream truncation: the
// handler writes result lines while the client is still sending, so
// without full-duplex mode the HTTP/1.x server closes the unread
// request body at the first response write and any stream longer than
// the server's read-ahead silently loses its tail.
func TestStreamLongBodyFullDuplex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 300
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(validSchedule)
		sb.WriteByte('\n')
	}
	resp, items := postNDJSON(t, ts, "/v1/stream", sb.String())
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(items) != n {
		t.Fatalf("stream truncated: %d result lines for %d inputs", len(items), n)
	}
	for i, item := range items {
		if item.Index != i || item.Error != "" {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
}
