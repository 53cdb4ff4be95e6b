package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// flakySchedd is a schedd behind a fault injector on /v1/schedule: of
// every four sub-requests one fails with a 500, one answers a 200 that
// is not JSON, one is slow enough that clusterd's hedge to the other
// backend wins, and one is served as it comes. The first two are
// re-dispatched, the third's late reply is the hedge loser's.
type flakySchedd struct {
	h http.Handler
	n atomic.Int64
}

func (f *flakySchedd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/schedule" {
		f.h.ServeHTTP(w, r)
		return
	}
	switch f.n.Add(1) % 4 {
	case 0:
		w.WriteHeader(http.StatusInternalServerError)
		return
	case 1:
		_, _ = w.Write([]byte(`{"algorithm":`))
		return
	case 2:
		time.Sleep(15 * time.Millisecond)
	}
	f.h.ServeHTTP(w, r)
}

// TestNoAnswerReadsAReleasedBuffer is the use-after-release check of
// the pooled read path (wire.Body): with wire.Scribble on, every buffer
// handed back to the pool is overwritten at once, so an answer that
// still aliases one after its release comes out scrambled, and under
// -race the overwrite is a report. Real loopback sockets carry frontd's
// batch and stream, clusterd's batch and stream — hedged, with replies
// re-dispatched after a 5xx and after a malformed 200 — and schedd's
// /v1/batch and /v1/schedule, several requests at once. Every answer
// must be byte for byte the encoding of the library's own answer
// (serve.Server.RunBatch, wire.Encode), which is the metamorphic
// relations' transparency: every tier answers as schedd does. What
// clusterd forwards, which no release may touch, is
// TestForwardedBytesOutliveACancelledHedge's.
func TestNoAnswerReadsAReleasedBuffer(t *testing.T) {
	cfg := serve.Config{MaxInflight: 256} // a slot for every request: this test is of bytes, not of shedding
	faults := &flakySchedd{h: serve.New(cfg).Handler()}
	flaky := httptest.NewServer(faults)
	t.Cleanup(flaky.Close)
	schedd := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(schedd.Close)
	c, err := cluster.New(cluster.Config{
		Backends:      []string{flaky.URL, schedd.URL}, // ties go to the flaky one
		Strategy:      "all",
		HedgeMinDelay: 2 * time.Millisecond,
		HedgeMaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	shard := httptest.NewServer(c.Handler())
	t.Cleanup(shard.Close)
	front := httptest.NewServer(mustFront(t, Config{Shards: []string{shard.URL}, DisableShedding: true}).Handler())
	t.Cleanup(front.Close)

	// Bodies of small random items, an item schedd refuses, and one at
	// serve-solve's shape, each with the library's answer: the batch
	// bytes, and per item its stream line and its /v1/schedule answer.
	type expected struct {
		items        [][]byte
		batch, lines []byte
		single       [][]byte
		ok           []bool
	}
	rng := rand.New(rand.NewSource(48))
	lib := serve.New(serve.Config{})
	cases := make([]expected, 6)
	for k := range cases {
		var env struct{ Requests []json.RawMessage }
		if err := json.Unmarshal(randomFrontBatchBody(t, rng, 1+rng.Intn(5)), &env); err != nil {
			t.Fatal(err)
		}
		e := &cases[k]
		for _, it := range env.Requests {
			e.items = append(e.items, it)
		}
		e.items = append(e.items, []byte(`{"algorithm":"ls-group:3","instance":{"m":4,"alpha":1,"estimates":[1,2,3]}}`))
		if k%2 == 0 {
			e.items = append(e.items, benchItem(t, "lpt-nochoice", 2_000, 512, uint64(k)))
		}
		var req serve.BatchRequest
		if err := json.Unmarshal(batchOf(e.items), &req); err != nil {
			t.Fatal(err)
		}
		want := lib.RunBatch(context.Background(), &req, 1)
		var buf bytes.Buffer
		wire.Encode(&buf, want)
		e.batch = bytes.Clone(buf.Bytes())
		for _, r := range want.Results {
			buf.Reset()
			wire.Encode(&buf, r)
			e.lines = append(e.lines, buf.Bytes()...)
			buf.Reset()
			if r.Error != "" {
				wire.Encode(&buf, wire.ErrorResponse{Error: r.Error})
			} else {
				buf.Write(append(r.Response, '\n'))
			}
			e.single = append(e.single, bytes.Clone(buf.Bytes()))
			e.ok = append(e.ok, r.Error == "")
		}
	}

	hedgeWins, redispatches := obs.GetCounter("cluster.hedge_wins"), obs.GetCounter("cluster.redispatches")
	wins, again := hedgeWins.Load(), redispatches.Load()
	wire.Scribble.Store(true)
	t.Cleanup(func() { wire.Scribble.Store(false) })
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for k := range cases {
			e := &cases[k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				check := func(what string, want []byte, url, path string, body []byte, wantOK bool) {
					code, got, err := postBytes(url+path, body)
					switch {
					case err != nil:
						t.Errorf("case %d, %s: %v", k, what, err)
					case (code == http.StatusOK) != wantOK || !bytes.Equal(got, want):
						t.Errorf("case %d, %s: status %d, %d bytes, want the library's %d:\n got %.200q\nwant %.200q",
							k, what, code, len(got), len(want), got, want)
					}
				}
				check("frontd batch", e.batch, front.URL, "/v1/batch", batchOf(e.items), true)
				check("frontd stream", e.lines, front.URL, "/v1/stream", streamOf(e.items), true)
				check("clusterd batch", e.batch, shard.URL, "/v1/batch", batchOf(e.items), true)
				check("clusterd stream", e.lines, shard.URL, "/v1/stream", streamOf(e.items), true)
				check("schedd batch", e.batch, schedd.URL, "/v1/batch", batchOf(e.items), true)
				for i, it := range e.items {
					check(fmt.Sprintf("schedd item %d", i), e.single[i], schedd.URL, "/v1/schedule", it, e.ok[i])
				}
			}()
		}
	}
	wg.Wait()
	// A fault is re-dispatched, unless the hedge had already gone out
	// and answers for it, which a loaded host makes likelier.
	t.Logf("%d sub-requests to the flaky backend, %d hedges won, %d re-dispatches",
		faults.n.Load(), hedgeWins.Load()-wins, redispatches.Load()-again)
	if faults.n.Load() < 8 || hedgeWins.Load() == wins {
		t.Errorf("%d sub-requests to the flaky backend, %d hedges won: a path this test is for went untried",
			faults.n.Load(), hedgeWins.Load()-wins)
	}
}

func batchOf(items [][]byte) []byte {
	return append(append([]byte(`{"requests":[`), bytes.Join(items, []byte(","))...), "]}"...)
}

func streamOf(items [][]byte) []byte {
	return append(bytes.Join(items, []byte("\n")), '\n')
}

// postBytes posts body and returns the status and the whole answer; it
// reports instead of failing, for the test's goroutines.
func postBytes(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
