package front

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func ringShards(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://shard-%d:9090", i)
	}
	return out
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Fatal("accepted empty shard list")
	}
	if _, err := NewRing([]string{"a", ""}, 64); err == nil {
		t.Fatal("accepted empty shard name")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 64); err == nil {
		t.Fatal("accepted duplicate shard")
	}
	r, err := NewRing([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.points) != 2*64 {
		t.Fatalf("vnodes<=0 built %d points, want default 64 per shard", len(r.points))
	}
}

// TestRingDeterminism: the ring is a pure function of the shard list —
// two frontd replicas built from the same list agree on every key.
func TestRingDeterminism(t *testing.T) {
	shards := ringShards(5)
	r1, _ := NewRing(shards, 64)
	r2, _ := NewRing(shards, 64)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if r1.Lookup(key) != r2.Lookup(key) {
			t.Fatalf("replicas disagree on %q", key)
		}
		if !reflect.DeepEqual(r1.successors(keyHash(key), nil), r2.successors(keyHash(key), nil)) {
			t.Fatalf("replicas disagree on successor walk of %q", key)
		}
	}
}

// TestRingSuccessorsShape: the walk starts at the owner and visits
// every shard exactly once.
func TestRingSuccessorsShape(t *testing.T) {
	r, _ := NewRing(ringShards(7), 32)
	var buf []int
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		buf = r.successors(keyHash(key), buf)
		if len(buf) != 7 {
			t.Fatalf("walk of %q has %d entries", key, len(buf))
		}
		if buf[0] != r.Lookup(key) {
			t.Fatalf("walk of %q starts at %d, owner is %d", key, buf[0], r.Lookup(key))
		}
		seen := map[int]bool{}
		for _, s := range buf {
			if s < 0 || s >= 7 || seen[s] {
				t.Fatalf("walk of %q invalid: %v", key, buf)
			}
			seen[s] = true
		}
	}
}

// TestRingRemovalStability: deleting one shard moves only that shard's
// keys, and each moved key lands on its ring successor — the invariant
// the whole-shard chaos test leans on.
func TestRingRemovalStability(t *testing.T) {
	shards := ringShards(6)
	full, _ := NewRing(shards, 64)
	const dead = 2
	rest := append(append([]string{}, shards[:dead]...), shards[dead+1:]...)
	reduced, _ := NewRing(rest, 64)
	// Map reduced indices back to full indices: [0..dead-1] unchanged,
	// [dead..] shifted up by one.
	toFull := func(i int) int {
		if i >= dead {
			return i + 1
		}
		return i
	}
	moved := 0
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		before := full.successors(keyHash(key), nil)
		after := toFull(reduced.Lookup(key))
		if before[0] != dead {
			if after != before[0] {
				t.Fatalf("key %q moved from surviving shard %d to %d", key, before[0], after)
			}
			continue
		}
		moved++
		if after != before[1] {
			t.Fatalf("dead shard's key %q landed on %d, want ring successor %d", key, after, before[1])
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed shard; test exercised nothing")
	}
}

// TestRingBalance: with enough virtual nodes no shard owns a wildly
// disproportionate key share (loose 3x bound — FNV over few shards is
// not perfectly smooth, it just must not collapse).
func TestRingBalance(t *testing.T) {
	const nShards, nKeys = 8, 20000
	r, _ := NewRing(ringShards(nShards), 64)
	counts := make([]int, nShards)
	for i := 0; i < nKeys; i++ {
		counts[r.Lookup([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	want := float64(nKeys) / nShards
	for s, c := range counts {
		if ratio := float64(c) / want; ratio > 3 || ratio < 1.0/3 {
			t.Fatalf("shard %d owns %d keys (%.2fx fair share); distribution collapsed: %v",
				s, c, ratio, counts)
		}
		if math.IsNaN(want) {
			t.Fatal("unreachable")
		}
	}
}

// TestRingSingleShard: every key maps to the only shard.
func TestRingSingleShard(t *testing.T) {
	r, _ := NewRing([]string{"http://only"}, 16)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if r.Lookup(key) != 0 {
			t.Fatalf("key %q not on the only shard", key)
		}
		if got := r.successors(keyHash(key), nil); len(got) != 1 || got[0] != 0 {
			t.Fatalf("walk of %q: %v", key, got)
		}
	}
}

func TestRingAccessors(t *testing.T) {
	shards := ringShards(3)
	r, _ := NewRing(shards, 8)
	if len(r.shards) != 3 {
		t.Fatalf("shard count = %d", len(r.shards))
	}
	got := r.Shards()
	if !reflect.DeepEqual(got, shards) {
		t.Fatalf("Shards = %v", got)
	}
	got[0] = "mutated"
	if r.Shards()[0] == "mutated" {
		t.Fatal("Shards returned aliased storage")
	}
}

// TestSuccessorsSlowAgrees: the >64-shard map fallback and the bitmask
// fast path produce identical walks (exercised via successorsSlow
// directly, since New caps rings at 64 shards).
func TestSuccessorsSlowAgrees(t *testing.T) {
	r, _ := NewRing(ringShards(9), 16)
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		fast := r.successors(keyHash(key), nil)
		slow := r.successorsSlow(keyHash(key), nil)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("walks differ for %q: fast %v slow %v", key, fast, slow)
		}
	}
}
