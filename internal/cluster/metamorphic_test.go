package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Metamorphic relations for the dispatch proxy:
//
//  1. Transparency: with hedging off and a single backend, clusterd's
//     /v1/batch response is byte-identical to schedd's own /v1/batch
//     for the same body — the proxy adds no observable behavior.
//  2. Pool invariance: under full replication, the response bytes are
//     invariant to the backend count and to the kill schedule, because
//     every backend computes the same deterministic answer.

// randomBatchBody builds a random but valid /v1/batch body (no
// placement field, so schedd accepts it too). Actuals stay inside the
// instance's uncertainty band [e/α, e·α].
func randomBatchBody(t *testing.T, rng *rand.Rand, k int) []byte {
	t.Helper()
	algos := []string{
		"lpt-norestriction", "ls-norestriction", "oracle-lpt",
		"lpt-nochoice", "ls-group:2",
	}
	var items []string
	for i := 0; i < k; i++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(3)*2 // even, so ls-group:2 is valid
		alpha := 1.0 + rng.Float64()
		ests := make([]string, n)
		acts := make([]string, n)
		for j := 0; j < n; j++ {
			e := 1 + rng.Float64()*9
			// Uniform factor in [1/alpha, alpha].
			f := 1/alpha + rng.Float64()*(alpha-1/alpha)
			ests[j] = fmt.Sprintf("%.4f", e)
			acts[j] = fmt.Sprintf("%.4f", e*f)
		}
		items = append(items, fmt.Sprintf(
			`{"algorithm":%q,"instance":{"m":%d,"alpha":%.4f,"estimates":[%s],"actuals":[%s]}}`,
			algos[rng.Intn(len(algos))], m, alpha,
			strings.Join(ests, ","), strings.Join(acts, ",")))
	}
	return []byte(`{"requests":[` + strings.Join(items, ",") + `]}`)
}

func postBatch(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestMetamorphicProxyTransparency: single backend, hedging off ⇒
// clusterd response bytes == direct schedd response bytes.
func TestMetamorphicProxyTransparency(t *testing.T) {
	direct := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(direct.Close)

	backend := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(backend.Close)
	c := mustCluster(t, Config{Backends: []string{backend.URL}, DisableHedging: true})
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		body := randomBatchBody(t, rng, 1+rng.Intn(6))
		sCode, sHdr, sBytes := postBatch(t, direct.URL, body)
		cCode, cHdr, cBytes := postBatch(t, front.URL, body)
		if sCode != cCode {
			t.Fatalf("trial %d: status %d (schedd) vs %d (clusterd)", trial, sCode, cCode)
		}
		if got, want := cHdr.Get("Content-Type"), sHdr.Get("Content-Type"); got != want {
			t.Fatalf("trial %d: content-type %q vs %q", trial, got, want)
		}
		if !bytes.Equal(sBytes, cBytes) {
			t.Fatalf("trial %d: proxy response differs from direct schedd:\n schedd: %s\ncluster: %s",
				trial, sBytes, cBytes)
		}
	}

	// Items with deterministic errors must also proxy transparently.
	bad := []byte(`{"requests":[
	  {"algorithm":"no-such-algo","instance":{"m":2,"alpha":1,"estimates":[1,2]}},
	  {"algorithm":"ls-group:3","instance":{"m":4,"alpha":1,"estimates":[1,2,3]}},
	  {"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[1,2,3]}}
	]}`)
	sCode, _, sBytes := postBatch(t, direct.URL, bad)
	cCode, _, cBytes := postBatch(t, front.URL, bad)
	if sCode != cCode || !bytes.Equal(sBytes, cBytes) {
		t.Fatalf("error batch differs: %d %s vs %d %s", sCode, sBytes, cCode, cBytes)
	}
}

// TestMetamorphicPoolInvariance: under full replication the batch
// response must not depend on how many backends serve it or on which
// of them are killed mid-batch (as long as one survives).
func TestMetamorphicPoolInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	body := randomBatchBody(t, rng, 12)

	run := func(nb int, kill func([]*testBackend)) []byte {
		bs, urls := newTestBackends(t, nb, serve.Config{})
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
		front := httptest.NewServer(c.Handler())
		t.Cleanup(front.Close)
		if kill != nil {
			go kill(bs)
		}
		code, _, data := postBatch(t, front.URL, body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, data)
		}
		return data
	}

	want := run(1, nil)
	for _, nb := range []int{2, 3, 5} {
		if got := run(nb, nil); !bytes.Equal(got, want) {
			t.Fatalf("%d-backend response differs from 1-backend:\n%s\nvs\n%s", nb, got, want)
		}
	}

	// Kill schedules: each leaves at least one live backend.
	kills := []func([]*testBackend){
		func(bs []*testBackend) { // one down before traffic
			bs[0].down.Store(true)
		},
		func(bs []*testBackend) { // flap mid-batch
			time.Sleep(5 * time.Millisecond)
			bs[1].down.Store(true)
			time.Sleep(30 * time.Millisecond)
			bs[1].down.Store(false)
			bs[2].down.Store(true)
		},
		func(bs []*testBackend) { // all but one down
			bs[0].down.Store(true)
			bs[2].down.Store(true)
		},
	}
	for i, kill := range kills {
		if got := run(3, kill); !bytes.Equal(got, want) {
			t.Fatalf("kill schedule %d changed the response:\n%s\nvs\n%s", i, got, want)
		}
	}

	// Hedging on must not change the bytes either — duplicates are
	// cancelled, and every backend computes the same answer.
	bs, urls := newTestBackends(t, 3, serve.Config{})
	bs[0].delay.Store(int64(50 * time.Millisecond)) // force hedges
	c := mustCluster(t, Config{
		Backends:      urls,
		Strategy:      "all",
		HedgeMinDelay: time.Millisecond,
	})
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)
	code, _, got := postBatch(t, front.URL, body)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("hedged response differs (status %d):\n%s\nvs\n%s", code, got, want)
	}
}
