package opt

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// The experiment suite solves the same offline-optimum problems over
// and over: every strategy scored on one instance calls Estimate with
// identical (times, m, exactLimit), and sweeps revisit instances
// across perturbation models. Estimate results are pure functions of
// their inputs, so they memoize safely; the exact branch-and-bound and
// MULTIFIT solves they guard are the expensive part of E2/E3-style
// validation runs.
//
// The cache is keyed by a content hash of the processing-time
// multiset-in-order plus (m, exactLimit); hash buckets store the full
// key (a private copy of times) and compare element-wise, so hash
// collisions can never return a wrong bracket. It is bounded twice: by
// entry count, which is what many small instances cost (a map slot and
// a few headers each), and by the floats of those key copies, which is
// what large ones cost — 80 KB an entry at n=10,000, so a count alone
// let the memory held grow with the number of large instances scored
// between flushes, that is with throughput.
//
// Each shard keeps two generations. Stores go to the young one, lookups
// read young then old, and a young generation that has reached half the
// shard's quota of either kind becomes the old one, whose predecessor
// is dropped: what a flush forgets is what went unstored for a whole
// generation, not — as when one table was dropped wholesale — whatever
// happened to be stored just before it (a repeated cold solve on 1.3 %
// of pipeline-fresh's instances). "Reached", not "would exceed": the
// store that fills a generation stays in it, so a generation holds its
// float quota plus at most one input — two n=10,000 keys, not one and
// 39 % of the quota idle — and an input longer than the quota is
// memoized like any other, alone in its generation.
//
// The table is sharded by the top bits of the content hash with one
// RWMutex per shard: the parallel trial loops hit the cache from every
// worker at once, and a single lock — even read-write — serializes the
// lookups that make memoization worthwhile in the first place. Shard
// choice uses the top hash bits, which are independent of the bits the
// per-shard map indexes with.

const (
	// cacheShards is the lock-striping factor; a power of two.
	cacheShards = 16
	// cacheMaxEntries and cacheMaxFloats are the memo table's quotas
	// across shards and generations: 4096 entries, and 4 MB of key
	// copies (plus the one input that fills each generation) — a serving
	// tier leaves one 16 KB key behind per n=2,000 request and reads none
	// back, so its resident memory followed this quota, doubled by the
	// collector's headroom.
	cacheMaxEntries = 4096
	cacheMaxFloats  = 1 << 19
	// One generation of one shard.
	genMaxEntries = cacheMaxEntries / cacheShards / 2
	genMaxFloats  = cacheMaxFloats / cacheShards / 2
)

type cacheKey struct {
	hash       uint64
	n          int
	m          int
	exactLimit int
}

type cacheEntry struct {
	times []float64 // private copy: full-key collision guard
	res   Result
}

// generation is one of a shard's two tables.
type generation struct {
	entries map[cacheKey][]cacheEntry
	size    int
	floats  int // summed len(times) over entries
}

func (g *generation) find(key cacheKey, times []float64) (Result, bool) {
	for _, e := range g.entries[key] {
		if timesEqual(e.times, times) {
			return e.res, true
		}
	}
	return Result{}, false
}

type cacheShard struct {
	sync.RWMutex
	young, old generation
}

var cache [cacheShards]cacheShard

func shardFor(hash uint64) *cacheShard {
	return &cache[(hash>>58)&(cacheShards-1)]
}

var (
	cacheHits   = obs.GetCounter("opt.cache_hits")
	cacheMisses = obs.GetCounter("opt.cache_misses")
)

// hashTimes is FNV-1a over the IEEE-754 bit patterns of times, folded
// word-wise (one xor/multiply per element instead of eight): the full
// 64-bit pattern feeds the accumulator in one step. The weaker
// per-byte diffusion is safe here because the cache compares the full
// key element-wise on every hit — a collision costs a bucket scan,
// never a wrong result.
func hashTimes(times []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range times {
		h ^= math.Float64bits(p)
		h *= prime64
	}
	return h
}

func timesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit equality, not numeric: NaN inputs must hit their own entry
		// rather than never match and grow the bucket unboundedly.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cacheLookup returns a memoized Estimate result if present.
func cacheLookup(key cacheKey, times []float64) (Result, bool) {
	s := shardFor(key.hash)
	s.RLock()
	res, ok := s.young.find(key, times)
	if !ok {
		res, ok = s.old.find(key, times)
	}
	s.RUnlock()
	if ok {
		cacheHits.Inc()
	} else {
		cacheMisses.Inc()
	}
	return res, ok
}

// cacheStore memoizes an Estimate result. Concurrent first-misses of
// the same key may both store; the duplicate check keeps the bucket
// from accumulating identical entries.
func cacheStore(key cacheKey, times []float64, res Result) {
	cp := make([]float64, len(times))
	copy(cp, times)
	s := shardFor(key.hash)
	s.Lock()
	defer s.Unlock()
	if _, ok := s.young.find(key, times); ok {
		return // lost a store race; entry already present
	}
	g := &s.young
	if g.size >= genMaxEntries || g.floats >= genMaxFloats {
		s.old, *g = *g, generation{}
	}
	if g.entries == nil {
		g.entries = map[cacheKey][]cacheEntry{}
	}
	g.entries[key] = append(g.entries[key], cacheEntry{times: cp, res: res})
	g.size++
	g.floats += len(cp)
}

// ResetCache empties the memo cache and zeroes its counters (tests).
// The tables are cleared, not dropped: a shard that held an entry takes
// the next store into the map it has, so a cold solve after a reset
// allocates what a cold solve allocates and not a map besides.
func ResetCache() {
	for i := range cache {
		s := &cache[i]
		s.Lock()
		for _, g := range []*generation{&s.young, &s.old} {
			clear(g.entries)
			g.size, g.floats = 0, 0
		}
		s.Unlock()
	}
	cacheHits.Add(-cacheHits.Load())
	cacheMisses.Add(-cacheMisses.Load())
}
