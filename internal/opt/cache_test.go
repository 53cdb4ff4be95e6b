package opt

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

func randomTimes(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + 9*src.Float64()
	}
	return out
}

func TestEstimateCacheHitsAndIdenticalResults(t *testing.T) {
	ResetCache()
	times := randomTimes(40, 7)
	first := Estimate(times, 4, 0)
	hits0, misses0 := cacheHits.Load(), cacheMisses.Load()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	second := Estimate(times, 4, 0)
	hits1 := cacheHits.Load()
	if hits1 != 1 {
		t.Fatalf("second identical call did not hit the cache (hits=%d)", hits1)
	}
	if first != second {
		t.Fatalf("cached result %+v differs from computed %+v", second, first)
	}
	// A copy with equal contents must hit too: keying is by content.
	cp := append([]float64(nil), times...)
	if got := Estimate(cp, 4, 0); got != first {
		t.Fatalf("content-equal copy missed or diverged: %+v vs %+v", got, first)
	}
}

func TestEstimateCacheKeysDistinguishMAndLimit(t *testing.T) {
	ResetCache()
	times := randomTimes(30, 3)
	a := Estimate(times, 3, 0)
	b := Estimate(times, 5, 0)
	if a == b {
		t.Fatal("different m produced identical brackets — suspicious key conflation")
	}
	// Same times, same m, different exactLimit: must not serve the
	// heuristic bracket when an exact solve is requested.
	big := randomTimes(30, 4)
	loose := Estimate(big, 4, 1) // exactLimit=1 → heuristic bounds
	tight := Estimate(big, 4, 30)
	if tight.Lower < loose.Lower-1e-12 || tight.Upper > loose.Upper+1e-12 {
		t.Fatalf("exact bracket [%g,%g] not within heuristic [%g,%g]",
			tight.Lower, tight.Upper, loose.Lower, loose.Upper)
	}
}

func TestEstimateCacheTrivialNotCached(t *testing.T) {
	ResetCache()
	Estimate(nil, 4, 0)
	Estimate([]float64{1, 2}, 4, 0) // n <= m
	Estimate([]float64{1, 2}, 1, 0) // m == 1
	hits, misses := cacheHits.Load(), cacheMisses.Load()
	if hits != 0 || misses != 0 {
		t.Fatalf("trivial paths touched the cache: hits=%d misses=%d", hits, misses)
	}
}

func TestEstimateCacheConcurrent(t *testing.T) {
	ResetCache()
	times := randomTimes(60, 11)
	want := Estimate(times, 6, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := Estimate(times, 6, 0); got != want {
					t.Errorf("concurrent Estimate diverged: %+v vs %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits := cacheHits.Load()
	if hits == 0 {
		t.Fatal("no cache hits under concurrent identical calls")
	}
}

func TestHashTimesSensitivity(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3.0000001}
	c := []float64{3, 2, 1} // order matters: the multiset is in-order
	if hashTimes(a) == hashTimes(b) {
		t.Fatal("hash ignores value change")
	}
	if hashTimes(a) == hashTimes(c) {
		t.Fatal("hash ignores order")
	}
	if hashTimes(a) != hashTimes(append([]float64(nil), a...)) {
		t.Fatal("hash not content-deterministic")
	}
}

// TestCacheIsBoundedTwice: the memo holds cacheMaxFloats floats of key
// copies, plus the one input that fills each generation, however large
// the instances scored — a bound on entries alone let 4,096 of them
// weigh 80 KB each at n=10,000 — and at most cacheMaxEntries entries
// however small, both counted over the two generations of every shard.
// An input longer than a generation's whole float quota is kept, alone
// in its generation.
func TestCacheIsBoundedTwice(t *testing.T) {
	defer ResetCache()
	const oversize = genMaxFloats + 1
	for _, c := range []struct{ n, stores, maxFloats int }{
		{10_000, 400, cacheMaxFloats + 2*cacheShards*10_000},
		{6, 20_000, cacheMaxFloats + 2*cacheShards*6},
		{oversize, 64, 2 * cacheShards * oversize},
	} {
		ResetCache()
		for i := 0; i < c.stores; i++ {
			times := randomTimes(c.n, 100+uint64(i))
			cacheStore(cacheKey{hash: hashTimes(times), n: c.n, m: 4, exactLimit: 20}, times, Result{})
		}
		entries, floats := 0, 0
		for i := range cache {
			for name, g := range map[string]*generation{"young": &cache[i].young, "old": &cache[i].old} {
				genEntries, genFloats := 0, 0
				for _, bucket := range g.entries {
					for _, e := range bucket {
						genEntries++
						genFloats += len(e.times)
					}
				}
				if genEntries != g.size || genFloats != g.floats {
					t.Errorf("n=%d: shard %d %s counts %d entries, %d floats; holds %d, %d",
						c.n, i, name, g.size, g.floats, genEntries, genFloats)
				}
				if genEntries > genMaxEntries || genFloats >= genMaxFloats+c.n {
					t.Errorf("n=%d: shard %d %s holds %d entries, %d floats; a generation's bounds are %d, under %d",
						c.n, i, name, genEntries, genFloats, genMaxEntries, genMaxFloats+c.n)
				}
				entries += genEntries
				floats += genFloats
			}
		}
		if entries > cacheMaxEntries || floats > c.maxFloats {
			t.Errorf("after %d stores of n=%d the memo holds %d entries, %d floats; bounds %d, %d",
				c.stores, c.n, entries, floats, cacheMaxEntries, c.maxFloats)
		}
		if 4*entries < cacheMaxEntries && 4*floats < cacheMaxFloats {
			t.Errorf("after %d stores of n=%d the memo holds %d entries, %d floats: neither budget is in use",
				c.stores, c.n, entries, floats)
		}
	}
}

// TestCacheReadsBothGenerations: a result outlives the rotation that
// follows its store — it is read from the old generation — and is gone
// after the next one.
func TestCacheReadsBothGenerations(t *testing.T) {
	defer ResetCache()
	ResetCache()
	const n = genMaxFloats // one of these fills a generation
	var keys []cacheKey
	var inputs [][]float64
	for seed := uint64(1); len(keys) < 3; seed++ {
		times := randomTimes(n, seed)
		if key := (cacheKey{hash: hashTimes(times), n: n, m: 4, exactLimit: 20}); shardFor(key.hash) == &cache[0] {
			keys, inputs = append(keys, key), append(inputs, times)
		}
	}
	for i, wantFirst := range []bool{true, true, false} {
		cacheStore(keys[i], inputs[i], Result{Lower: float64(i + 1)})
		if res, ok := cacheLookup(keys[i], inputs[i]); !ok || res.Lower != float64(i+1) {
			t.Fatalf("store %d not read back: %+v, %v", i, res, ok)
		}
		if _, ok := cacheLookup(keys[0], inputs[0]); ok != wantFirst {
			t.Fatalf("after store %d the first entry is held: %v, want %v", i, ok, wantFirst)
		}
	}
}
