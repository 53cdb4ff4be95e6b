package front

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/proxy"
	"repro/internal/wire"
)

// FuzzRing fuzzes the consistent-hash ring over arbitrary shard
// counts, vnode counts, and keys. Invariants:
//
//   - no input panics, and Lookup always lands inside the shard list;
//   - successors is a permutation of every shard index, starting at
//     Lookup(key), and is stable under buffer reuse;
//   - the ring is a pure function of its inputs: rebuilding it yields
//     the same assignment;
//   - removal stability: deleting one shard never moves a key owned by
//     a different shard, and the deleted shard's keys land exactly on
//     their next live ring successor.
//
// Shard counts above 64 are exercised on purpose: New caps the tier
// at 64, but the ring must stay correct through its map-based fallback
// (successorsSlow) even when misused as a library.
func FuzzRing(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte("key"), uint8(0))
	f.Add(uint8(3), uint8(4), []byte(`{"algorithm":"lpt-norestriction"}`), uint8(1))
	f.Add(uint8(8), uint8(1), []byte(""), uint8(7))
	f.Add(uint8(64), uint8(2), []byte("cap boundary"), uint8(63))
	f.Add(uint8(79), uint8(1), []byte("slow path"), uint8(40)) // > 64: successorsSlow
	f.Fuzz(func(t *testing.T, nShards, vnodes uint8, key []byte, removeSel uint8) {
		n := 1 + int(nShards)%80
		vn := int(vnodes) % 8 // 0 selects the default 64
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("http://shard-%d:9800", i)
		}
		r, err := NewRing(names, vn)
		if err != nil {
			t.Fatalf("valid shard list rejected: %v", err)
		}
		owner := r.Lookup(key)
		if owner < 0 || owner >= n {
			t.Fatalf("Lookup(%q) = %d with %d shards", key, owner, n)
		}

		order := r.successors(keyHash(key), nil)
		if len(order) != n {
			t.Fatalf("successors returned %d entries for %d shards", len(order), n)
		}
		if order[0] != owner {
			t.Fatalf("successors starts at %d, Lookup says %d", order[0], owner)
		}
		seen := make([]bool, n)
		for _, s := range order {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("successors not a permutation: %v", order)
			}
			seen[s] = true
		}
		// Buffer reuse must not change the answer.
		first := append([]int(nil), order...)
		if reused := r.successors(keyHash(key), order); !equalInts(first, reused) {
			t.Fatalf("buffer reuse changed successors: %v vs %v", first, reused)
		}

		// Purity: an identical ring assigns identically.
		r2, err := NewRing(names, vn)
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Lookup(key); got != owner {
			t.Fatalf("rebuild moved key: %d vs %d", got, owner)
		}

		// Removal stability.
		if n < 2 {
			return
		}
		victim := int(removeSel) % n
		reducedNames := make([]string, 0, n-1)
		for i, name := range names {
			if i != victim {
				reducedNames = append(reducedNames, name)
			}
		}
		reduced, err := NewRing(reducedNames, vn)
		if err != nil {
			t.Fatal(err)
		}
		got := reduced.Shards()[reduced.Lookup(key)]
		want := names[owner]
		if owner == victim {
			// The dead shard's keys move to the next live successor.
			want = names[order[1]]
		}
		if got != want {
			t.Fatalf("removing shard %d moved key %q: owner %q, want %q (full owner %d)",
				victim, key, got, want, owner)
		}
	})
}

// FuzzDecodeFrontBatch fuzzes frontd's batch entry point. Invariants:
//
//   - no input panics the decoder;
//   - anything accepted is dispatch-safe: bounded non-empty batch,
//     every item validated against the front's limits, and every
//     item's dispatch key (its canonical JSON) assigns to a shard
//     without panicking;
//   - acceptance and routing are stable: the canonical re-encoding of
//     an accepted batch decodes again with the same shape and routes
//     every item to the same shard.
func FuzzDecodeFrontBatch(f *testing.F) {
	item := `{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}}`
	f.Add([]byte(`{"requests":[` + item + `]}`))
	f.Add([]byte(`{"requests":[` + item + `,` + item + `]}`))
	f.Add([]byte(`{"requests":[{"algorithm":"oracle-lpt","instance":{"m":2,"alpha":1,"estimates":[1,2],"actuals":[1,2]}}]}`))
	f.Add([]byte(`{"requests":[` + item + `],"placement":{"strategy":"group:2"}}`)) // clusterd-only field
	f.Add([]byte(`{"requests":[{"algorithm":"","instance":{"m":1,"alpha":1,"estimates":[1]}}]}`))
	f.Add([]byte(`{"requests":[{"algorithm":"x"}]}`))
	f.Add([]byte(`{"requests":[{"algorithm":"x","instance":{"m":0,"alpha":1,"estimates":[1]}}]}`))
	f.Add([]byte(`{"requests":[{"algorithm":"x","instance":{"m":1,"alpha":0.5,"estimates":[1]}}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"requests":[` + item + `]}garbage`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := []string{"http://a", "http://b", "http://c"}
		lim := wire.Limits{MaxBatch: 16, MaxTasks: 256, MaxMachines: 64}
		fr, err := New(Config{
			Shards: shards,
			Tier:   proxy.Config{MaxBatch: lim.MaxBatch, MaxTasks: lim.MaxTasks, MaxMachines: lim.MaxMachines},
		})
		if err != nil {
			t.Fatal(err)
		}
		req, err := fr.Decode(data)
		if err != nil {
			return
		}
		if len(req.Requests) == 0 || len(req.Requests) > 16 {
			t.Fatalf("accepted batch of %d items: %s", len(req.Requests), data)
		}
		ring, err := NewRing(shards, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		route := make([]int, len(req.Requests))
		for i := range req.Requests {
			r := &req.Requests[i]
			if err := lim.CheckItem(r.Algorithm, r.Instance); err != nil {
				t.Fatalf("accepted item %d fails its own check: %v\ninput: %s", i, err, data)
			}
			// Accepted ⇒ routable: the dispatch key is the item's
			// canonical JSON, and it must assign cleanly.
			key, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted item %d does not marshal: %v", i, err)
			}
			route[i] = ring.Lookup(key)
			if route[i] < 0 || route[i] >= len(ring.shards) {
				t.Fatalf("item %d routed to shard %d of %d", i, route[i], len(ring.shards))
			}
		}
		// Stability under re-encoding: same shape, same routing.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		again, err := fr.Decode(enc)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s\noriginal: %s", err, enc, data)
		}
		if len(again.Requests) != len(req.Requests) {
			t.Fatalf("round trip changed batch size: %s", data)
		}
		for i := range again.Requests {
			key, err := json.Marshal(&again.Requests[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := ring.Lookup(key); got != route[i] {
				t.Fatalf("round trip moved item %d: shard %d vs %d\ninput: %s", i, got, route[i], data)
			}
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
