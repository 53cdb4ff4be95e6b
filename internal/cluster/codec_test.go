package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// largeItem is a valid work item of n tasks, some 19 bytes a number:
// past what a loopback socket buffers, so a backend that does not read
// leaves the transport mid-write.
func largeItem(n int, salt float64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"algorithm":"lpt-nochoice","instance":{"m":64,"alpha":1.5,"estimates":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.15f", 1+salt+float64(i%97)/7)
	}
	b.WriteString(`]}}`)
	return b.Bytes()
}

// TestForwardedBytesOutliveACancelledHedge is the ownership rule of
// wire.ReadBody over real sockets: clusterd forwards a sub-slice of the
// request body, and a cancelled hedge's transport may still be writing
// it after Post, the dispatch and the whole handler have returned. One
// backend accepts and stalls without reading; the hedge to the other
// wins; the handler returns and the next request comes through the same
// path. Under -race a recycled buffer is a report; without it, the
// stalled backend finally reads what it was sent, and that must be a
// prefix of exactly one item — nothing, or the exact bytes.
func TestForwardedBytesOutliveACancelledHedge(t *testing.T) {
	items := [][]byte{largeItem(40_000, 0), largeItem(40_000, 0.5)}
	release := make(chan struct{})
	reads := make(chan []byte, len(items)) // one stalled dispatch per item
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/schedule" {
			wire.WriteJSON(w, http.StatusOK, struct {
				Status string `json:"status"`
			}{"ok"})
			return
		}
		<-release
		got, _ := io.ReadAll(r.Body) // the client hung up long ago: an error here is expected
		reads <- got
	}))
	t.Cleanup(stalled.Close)
	fast := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(fast.Close)
	c := mustCluster(t, Config{
		Backends:      []string{stalled.URL, fast.URL}, // ties go to the lowest id: the stalled one is every primary
		HedgeMinDelay: 5 * time.Millisecond,
		HedgeMaxDelay: 5 * time.Millisecond,
	})
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	for i, item := range items {
		body := append(append([]byte(`{"requests":[`), item...), `]}`...)
		resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Results) != 1 || br.Results[0].Error != "" || br.Results[0].Response == nil {
			t.Fatalf("request %d: %+v (decode: %v)", i, br, err)
		}
	}
	close(release)
	for i := range items {
		select {
		case got := <-reads:
			if !bytes.HasPrefix(items[0], got) && !bytes.HasPrefix(items[1], got) {
				t.Errorf("stalled request %d read %d bytes that are no prefix of either item: %.80q…", i, len(got), got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the stalled backend saw %d requests, want one per item: the hedges did not fire from it", i)
		}
	}
}

// TestDecodeBatchAgreesWithDecodeStrict holds clusterd's decode — the
// scanner, the placement handed to encoding/json mid-scan, the fallback
// — to DecodeStrict alone on the same body: same request, or the same
// error string.
func TestDecodeBatchAgreesWithDecodeStrict(t *testing.T) {
	c := mustCluster(t, Config{Backends: []string{"http://a", "http://b", "http://c", "http://d"}})
	item := `{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}}`
	for _, body := range []string{
		`{"requests":[` + item + `]}`,
		`{"requests":[` + item + `,` + item + `],"placement":{"strategy":"group:2"}}`,
		`{"placement":{"replicas":[[0,3],[1]]},"requests":[` + item + `,` + item + `]}`,
		`{"requests":[` + item + `],"placement":null}`,
		`{"requests":[` + item + `],"placement":{"strategy":5}}`,
		`{"requests":[` + item + `],"placement":{"replicas":[[0,"x"]]}}`,
		`{"requests":[` + item + `],"placement":{"bogus":1}}`,
		`{"requests":[` + item + `],"placement":7}`,
		`{"requests":[` + item + `],"placement":{"strategy":"all"},"placement":{"replicas":[[1]]}}`,
		`{"requests":[` + item + `],"placement":{"strategy":"all"},"placement":null}`,
		`{"placement":{"replicas":[[0,1]]},"Requests":[` + item + `],"placement":{"strategy":"none"}}`,
		`{"requests":[` + item + `],"placement":{"strategy":"all"}} trailing`,
		`{"requests":[` + item + `],"placement":{"strategy":"all"},"Requests":[` + item + `,` + item + `]}`,
		`{"requests":[` + item + `],"placement":{"strategy":"all"`,
		`{"requests":[{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1],"actual":[1]}}],"placement":{"strategy":"all"}}`,
		`{"requests":5}`, `{"requests":[5]}`, `{"requests":[` + item + `],"bogus":1}`,
	} {
		var want BatchRequest
		wantErr := wire.DecodeStrict(strings.NewReader(body), &want)
		if wantErr == nil {
			wantErr = serve.CheckBatch(want.Requests, wire.Limits{MaxTasks: 100000, MaxMachines: 10000, MaxBatch: 256}) // the defaults
		}
		if wantErr == nil && want.Placement != nil {
			_, wantErr = c.Place(&want)
		}
		got, err := c.Decode([]byte(body))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%s:\n  decodeBatch: %v\n  DecodeStrict: %v", body, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.Placement, want.Placement) || len(got.Requests) != len(want.Requests) {
			t.Errorf("%s: decodeBatch %+v, DecodeStrict %+v", body, got, want)
			continue
		}
		for i := range got.Requests {
			a, _ := json.Marshal(&got.Requests[i])
			b, _ := json.Marshal(&want.Requests[i])
			if !bytes.Equal(a, b) {
				t.Errorf("%s: item %d decoded to %s, strictly to %s", body, i, a, b)
			}
		}
	}
}
