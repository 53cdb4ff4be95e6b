package front

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over a fixed shard list. Each shard
// contributes vnodes virtual points, hashed from "name#index" with
// FNV-1a, so the ring is a pure function of (shard names, vnode
// count): every frontd built from the same shard list routes every key
// identically, with no coordination.
//
// The property the chaos layer leans on is removal stability: because
// a shard's points depend only on its own name, deleting a shard
// leaves every other point in place — the only keys that move are the
// dead shard's, and each lands on its ring successor. successors
// gives that walk order so the dispatcher can re-route work from a
// dead shard deterministically.
type Ring struct {
	shards []string
	points []ringPoint // sorted by (hash, shard)
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the given shard names with vnodes virtual
// points per shard (vnodes <= 0 selects the default 64). Names must be
// non-empty and distinct — duplicate names would alias the same
// points, silently halving the pool.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, errors.New("front: empty shard list")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, errors.New("front: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("front: duplicate shard %q", s)
		}
		seen[s] = true
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, s := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: i})
		}
	}
	// Ties between distinct shards' points are broken by shard index so
	// the order is total and rebuild-stable.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// pointHash is the ring coordinate of one virtual node: FNV-1a over
// "name#index", finalized by mix64. Raw FNV clusters badly on short,
// similar strings (shard URLs differ in one digit), which skews the
// key distribution; the finalizer spreads those nearby hashes over the
// whole ring.
func pointHash(name string, vnode int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(strconv.Itoa(vnode)))
	return mix64(h.Sum64())
}

// keyHash is the ring coordinate of a work-item key.
func keyHash(key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche so
// every input bit affects every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shards returns the shard names in their configured order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Lookup returns the index of the shard owning key: the shard of the
// first ring point at or clockwise of the key's hash.
func (r *Ring) Lookup(key []byte) int {
	return r.points[r.successorPoint(keyHash(key))].shard
}

// successorPoint returns the index into points of the first point with
// hash >= h, wrapping to 0 past the end.
func (r *Ring) successorPoint(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// successors returns every shard index in ring-walk order starting at
// the owner of ring coordinate h, which the dispatcher derives from an
// item's decoded content (itemHash): position 0 is the owner, position
// 1 is where the item lands if the owner dies, and so on. Each shard
// appears exactly once. The result is appended to buf (pass nil, or a
// previous result to reuse its backing array).
func (r *Ring) successors(h uint64, buf []int) []int {
	out := buf[:0]
	seen := 0
	var mark uint64 // bitmask over shards; len(shards) <= 64 enforced by New
	if len(r.shards) > 64 {
		// Fallback for oversized rings (library misuse; New caps the
		// shard count): a map keeps correctness.
		return r.successorsSlow(h, out)
	}
	start := r.successorPoint(h)
	for i := 0; seen < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if mark&(1<<uint(p.shard)) == 0 {
			mark |= 1 << uint(p.shard)
			out = append(out, p.shard)
			seen++
		}
	}
	return out
}

func (r *Ring) successorsSlow(h uint64, out []int) []int {
	seen := make(map[int]bool, len(r.shards))
	start := r.successorPoint(h)
	for i := 0; len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
