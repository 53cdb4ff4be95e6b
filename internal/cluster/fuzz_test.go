package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/proxy"
)

// FuzzDecodeBatch fuzzes clusterd's single request entry point.
// Invariants:
//
//   - no input panics the decoder;
//   - anything accepted is dispatch-safe: bounded non-empty batch,
//     every item validated, and any placement override structurally
//     sound against the backend count — so replicaSets cannot fail on
//     an accepted request;
//   - acceptance is stable: the canonical re-encoding of an accepted
//     batch decodes again with the same shape and replica sets.
func FuzzDecodeBatch(f *testing.F) {
	item := `{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}}`
	f.Add([]byte(`{"requests":[` + item + `]}`))
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"strategy":"group:2"}}`))
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[0,3]]}}`))
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[1,0]]}}`))                 // unsorted
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[0,0]]}}`))                 // duplicate
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[9]]}}`))                   // out of range
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[]]}}`))                    // empty set
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"replicas":[[0],[1]]}}`))               // wrong count
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"strategy":"none","replicas":[[0]]}}`)) // both
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"strategy":"group:3"}}`))               // 3 does not divide 4
	f.Add([]byte(`{"requests":[` + item + `],"placement":{}}`))                                   // empty spec
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"requests":[` + item + `]}garbage`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(Config{
			Backends: []string{"http://a", "http://b", "http://c", "http://d"},
			Tier:     proxy.Config{MaxBatch: 16, MaxTasks: 256, MaxMachines: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		req, err := c.Decode(data)
		if err != nil {
			return
		}
		if len(req.Requests) == 0 || len(req.Requests) > 16 {
			t.Fatalf("accepted batch of %d items: %s", len(req.Requests), data)
		}
		for i := range req.Requests {
			r := &req.Requests[i]
			if r.Algorithm == "" || r.Instance == nil {
				t.Fatalf("accepted unvalidated item %d: %s", i, data)
			}
			if r.Instance.N() > 256 || r.Instance.M > 64 {
				t.Fatalf("accepted oversized instance %d: %s", i, data)
			}
			if err := r.Instance.Validate(true); err != nil {
				t.Fatalf("accepted invalid instance %d: %v\ninput: %s", i, err, data)
			}
		}
		// Accepted ⇒ placeable: phase 1 must never fail downstream of a
		// successful decode.
		sets, err := c.Place(req)
		if err != nil {
			t.Fatalf("accepted batch fails placement: %v\ninput: %s", err, data)
		}
		if len(sets) != len(req.Requests) {
			t.Fatalf("%d replica sets for %d items: %s", len(sets), len(req.Requests), data)
		}
		// Stability under re-encoding.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		again, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s\noriginal: %s", err, enc, data)
		}
		if len(again.Requests) != len(req.Requests) {
			t.Fatalf("round trip changed batch size: %s", data)
		}
		sets2, err := c.Place(again)
		if err != nil {
			t.Fatalf("canonical form fails placement: %v", err)
		}
		for i := range sets {
			if len(sets[i]) != len(sets2[i]) {
				t.Fatalf("round trip changed replica set %d: %v vs %v", i, sets[i], sets2[i])
			}
			for j := range sets[i] {
				if sets[i][j] != sets2[i][j] {
					t.Fatalf("round trip changed replica set %d: %v vs %v", i, sets[i], sets2[i])
				}
			}
		}
	})
}
