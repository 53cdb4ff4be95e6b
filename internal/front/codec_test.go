package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchItem spells a work item the way cmd/bench's generator does: a
// uniform instance perturbed inside its alpha band, estimates and
// actuals both written out, through encoding/json.
func benchItem(t *testing.T, algorithm string, n, m int, seed uint64) []byte {
	t.Helper()
	in, err := workload.New(workload.Spec{Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^0x9e3779b97f4a7c15))
	type wireInstance struct {
		M         int       `json:"m"`
		Alpha     float64   `json:"alpha"`
		Estimates []float64 `json:"estimates"`
		Actuals   []float64 `json:"actuals"`
	}
	body, err := json.Marshal(struct {
		Algorithm string       `json:"algorithm"`
		Instance  wireInstance `json:"instance"`
	}{algorithm, wireInstance{in.M, in.Alpha, in.Estimates(), in.Actuals()}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postItems sends items to path as one batch or one stream and returns
// the result of each, in order.
func postItems(t *testing.T, url, path string, items [][]byte) []Item {
	t.Helper()
	body := append(append([]byte(`{"requests":[`), bytes.Join(items, []byte(","))...), "]}\n"...)
	if path == "/v1/stream" {
		body = append(bytes.Join(items, []byte("\n")), '\n')
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	var out []Item
	if path == "/v1/stream" {
		for dec := json.NewDecoder(resp.Body); dec.More(); {
			var it Item
			if err := dec.Decode(&it); err != nil {
				t.Fatal(err)
			}
			out = append(out, it)
		}
	} else {
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		out = br.Results
	}
	if len(out) != len(items) {
		t.Fatalf("%s: %d results for %d items", path, len(out), len(items))
	}
	return out
}

// serveWorkload is one of cmd/bench's four serving workloads as the
// fast-path tests send it: the path and the item shapes.
type serveWorkload struct {
	name, path string
	items      [][]byte
}

func serveWorkloads(t *testing.T) []serveWorkload {
	fanoutAlgos := []string{"lpt-nochoice", "lpt-norestriction", "ls-group:2", "ls-group:4"}
	var fanout [][]byte
	for k := 0; k < 16; k++ {
		fanout = append(fanout, benchItem(t, fanoutAlgos[k%len(fanoutAlgos)], 200, 8, uint64(100+k)))
	}
	return []serveWorkload{
		{"serve-small, serve-open", "/v1/batch", [][]byte{benchItem(t, "lpt-norestriction", 6, 4, 1)}},
		{"serve-fanout batch", "/v1/batch", fanout},
		{"serve-fanout stream", "/v1/stream", fanout},
		{"serve-solve", "/v1/batch", [][]byte{benchItem(t, "lpt-nochoice", 2000, 512, 2)}},
	}
}

// TestServeWorkloadsStayOnTheScanner sends the item shapes of
// cmd/bench's four serving workloads through frontd → clusterd → schedd
// and reads the two codec counters: every item is scanned once at every
// tier and none falls back to the reflective decoder. cmd/bench cannot
// print these counters; this is where a spelling drifting off the fast
// path shows.
func TestServeWorkloadsStayOnTheScanner(t *testing.T) {
	_, urls := newTestShards(t, 2) // one schedd each, no hedging: an item is decoded exactly three times
	ts := httptest.NewServer(mustFront(t, Config{Shards: urls}).Handler())
	t.Cleanup(ts.Close)
	scanned, fallback := obs.GetCounter("wire.items_scanned"), obs.GetCounter("wire.items_fallback")

	for _, w := range serveWorkloads(t) {
		s0, f0 := scanned.Load(), fallback.Load()
		for i, it := range postItems(t, ts.URL, w.path, w.items) {
			if it.Error != "" || it.Response == nil {
				t.Fatalf("%s: item %d: %+v", w.name, i, it)
			}
		}
		if s, f := scanned.Load()-s0, fallback.Load()-f0; s != int64(3*len(w.items)) || f != 0 {
			t.Errorf("%s: %d items scanned %d times and fell back %d times over three tiers, want %d and 0",
				w.name, len(w.items), s, f, 3*len(w.items))
		}
	}

	// The other path counts too: a spelling the scanner leaves alone.
	s0, f0 := scanned.Load(), fallback.Load()
	odd := []byte(`{"Algorithm":"lpt-nochoice","instance":{"m":2,"alpha":1.5,"estimates":[1,2]}}`)
	if it := postItems(t, ts.URL, "/v1/batch", [][]byte{odd})[0]; it.Error != "" {
		t.Fatalf("case-variant key: %+v", it)
	}
	// frontd decodes it strictly and forwards its canonical encoding,
	// which the two tiers below scan.
	if s, f := scanned.Load()-s0, fallback.Load()-f0; s != 2 || f != 1 {
		t.Errorf("case-variant key: scanned %d, fell back %d, want 2 and 1", s, f)
	}
}

// TestServeWorkloadsStayOnTheSplice is the scanner test's twin on the
// way up: over real sockets, the answer to every item of the four
// workloads passes the one-pass checker at each of the two proxy tiers
// and none is compacted again — schedd's appender writes what the
// checker accepts. The other path counts too: a schedd whose answers
// carry a space after a colon is recompacted once, by clusterd, whose
// own writing of it frontd then checks, and the client still reads
// json.Encoder's bytes.
func TestServeWorkloadsStayOnTheSplice(t *testing.T) {
	_, urls := newTestShards(t, 2)
	ts := httptest.NewServer(mustFront(t, Config{Shards: urls}).Handler())
	t.Cleanup(ts.Close)
	checked, recompacted := obs.GetCounter("wire.answers_checked"), obs.GetCounter("wire.answers_recompacted")

	for _, w := range serveWorkloads(t) {
		c0, r0 := checked.Load(), recompacted.Load()
		for i, it := range postItems(t, ts.URL, w.path, w.items) {
			if it.Error != "" || it.Response == nil {
				t.Fatalf("%s: item %d: %+v", w.name, i, it)
			}
		}
		if c, r := checked.Load()-c0, recompacted.Load()-r0; c != int64(2*len(w.items)) || r != 0 {
			t.Errorf("%s: %d answers checked %d times and recompacted %d times over two proxy tiers, want %d and 0",
				w.name, len(w.items), c, r, 2*len(w.items))
		}
	}

	direct := serve.New(serve.Config{})
	respelt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		direct.Handler().ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		_, _ = w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"n":`), []byte(`"n": `), 1))
	}))
	t.Cleanup(respelt.Close)
	c, err := cluster.New(cluster.Config{Backends: []string{respelt.URL}, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	shard := httptest.NewServer(c.Handler())
	t.Cleanup(shard.Close)
	loose := httptest.NewServer(mustFront(t, Config{Shards: []string{shard.URL}}).Handler())
	t.Cleanup(loose.Close)

	item := benchItem(t, "lpt-norestriction", 6, 4, 1)
	req, err := serve.DecodeItem(item, wire.Limits{MaxTasks: 10, MaxMachines: 10})
	if err != nil {
		t.Fatal(err)
	}
	answer := direct.RunBatch(context.Background(), &serve.BatchRequest{Requests: []serve.ScheduleRequest{*req}}, 1).Results[0]
	if answer.Error != "" {
		t.Fatal(answer.Error)
	}
	raw := answer.Response
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(BatchResponse{Results: []Item{{Response: raw}}}); err != nil {
		t.Fatal(err)
	}
	c0, r0 := checked.Load(), recompacted.Load()
	resp, err := http.Post(loose.URL+"/v1/batch", "application/json", bytes.NewReader(append(append([]byte(`{"requests":[`), item...), "]}"...)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("a respelt answer arrived as %q (%v)\nwant %q", got, err, want.Bytes())
	}
	if c, r := checked.Load()-c0, recompacted.Load()-r0; c != 1 || r != 1 {
		t.Errorf("a respelt answer: checked %d, recompacted %d, want 1 and 1", c, r)
	}
}

// TestRoutingIgnoresSpelling: the ring key is a hash of what an item
// decodes to, so every spelling of one item — whitespace, key order,
// 1.50 for 1.5, actuals left out or equal to the estimates, a zero
// exact limit, a spelling only the strict decoder takes — reaches one
// shard, by batch and by stream, while distinct items still spread.
func TestRoutingIgnoresSpelling(t *testing.T) {
	shards, urls := newTestShards(t, 3)
	ts := httptest.NewServer(mustFront(t, Config{Shards: urls}).Handler())
	t.Cleanup(ts.Close)
	served := func() (counts []int) {
		for _, s := range shards {
			n := 0
			for _, k := range s.executions() {
				n += k
			}
			counts = append(counts, n)
		}
		return counts
	}

	spellings := []string{
		`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.5,"estimates":[2,3,9],"actuals":[2,3,9]}}`,
		`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.5,"estimates":[2,3,9]}}`,
		` { "algorithm" : "lpt-norestriction" ,` + "\t" + `"instance" : { "m" : 4 , "alpha" : 1.5 , "estimates" : [ 2 , 3 , 9 ] } } `,
		`{"instance":{"actuals":[2,3,9],"estimates":[2,3,9],"alpha":1.5,"m":4},"algorithm":"lpt-norestriction"}`,
		`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.50,"estimates":[2.0,3e0,0.9E1]}}`,
		`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.5,"estimates":[2,3,9]},"exact_limit":0}`,
		`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.5,"estimates":[2,3,9],"sizes":[0,0,0]}}`,
		`{"ALGORITHM":"lpt-norestriction","instance":{"M":4,"alpha":1.5,"estimates":[2,3,9],"actuals":null}}`,
	}
	var first []byte
	for i, s := range spellings {
		for _, path := range []string{"/v1/batch", "/v1/stream"} {
			it := postItems(t, ts.URL, path, [][]byte{[]byte(s)})[0]
			if it.Error != "" {
				t.Fatalf("spelling %d by %s: %+v", i, path, it)
			}
			if first == nil {
				first = it.Response
			} else if !bytes.Equal(it.Response, first) {
				t.Errorf("spelling %d by %s answered %s, the first %s", i, path, it.Response, first)
			}
		}
	}
	home := -1
	for i, n := range served() {
		if n == 2*len(spellings) {
			home = i
		} else if n != 0 {
			home = len(shards) // more than one shard served a spelling
		}
	}
	if home < 0 || home == len(shards) {
		t.Fatalf("%d spellings of one item, twice each, were served %v by shard", len(spellings), served())
	}

	before := served()
	var distinct [][]byte
	for i := 0; i < 48; i++ {
		distinct = append(distinct, []byte(fmt.Sprintf(`{"algorithm":"lpt-norestriction","instance":{"m":4,"alpha":1.5,"estimates":[%d,3,9]}}`, i+10)))
	}
	postItems(t, ts.URL, "/v1/batch", distinct)
	for i, n := range served() {
		if n-before[i] < 4 {
			t.Errorf("shard %d served %d of 48 distinct items: %v", i, n-before[i], served())
		}
	}
	// The key is content: the last bit of one float moves it.
	a := &task.Instance{M: 4, Alpha: 1.5, Tasks: []task.Task{{Estimate: 2, Actual: 2}}}
	b := &task.Instance{M: 4, Alpha: 1.5, Tasks: []task.Task{{Estimate: 2, Actual: 2.0000000000000004}}}
	if itemHash(&serve.ScheduleRequest{Algorithm: "x", Instance: a}) == itemHash(&serve.ScheduleRequest{Algorithm: "x", Instance: b}) {
		t.Error("itemHash does not see a changed actual")
	}
}
