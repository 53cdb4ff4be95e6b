package sim

import "math/bits"

// rankLevels bounds a rankSet's height: 64^6 > 2^31 ranks.
const rankLevels = 6

// rankSet is the open engine's pending set: a set of ranks in [0, size)
// held as a 64-ary bitmap in a caller-owned slab. Level 0 has a bit per
// rank, and each level above has a bit per word of the one below, set
// exactly while that word is non-empty, up to a single top word. push
// sets a bit, min is one trailing-zeros count per level, and remove
// clears a bit, and a summary bit once its word empties: O(log64 size)
// each, with no comparisons and no data movement.
type rankSet struct {
	off    [rankLevels]int32 // slab offset of each level's words, level 0 first
	levels int32
}

// layout places a set over size ranks at word base of the slab and
// returns the first word past it. The slab must be zeroed: an all-zero
// region is the empty set.
func (s *rankSet) layout(base int32, size int) int32 {
	s.levels = 0
	for {
		words := max(int32((size+63)>>6), 1)
		s.off[s.levels] = base
		s.levels++
		base += words
		if words == 1 {
			return base
		}
		size = int(words)
	}
}

// push adds rank x.
func (s *rankSet) push(slab []uint64, x int32) {
	for l := int32(0); l < s.levels; l++ {
		w := &slab[s.off[l]+x>>6]
		old := *w
		*w = old | 1<<uint(x&63)
		if old != 0 {
			return // the summary bits above are already set
		}
		x >>= 6
	}
}

// remove deletes rank x; removing an absent rank changes nothing.
func (s *rankSet) remove(slab []uint64, x int32) {
	for l := int32(0); l < s.levels; l++ {
		w := &slab[s.off[l]+x>>6]
		*w &^= 1 << uint(x&63)
		if *w != 0 {
			return
		}
		x >>= 6
	}
}

// min returns the least rank in the set, or -1 when it is empty.
func (s *rankSet) min(slab []uint64) int32 {
	l := s.levels - 1
	w := slab[s.off[l]]
	if w == 0 {
		return -1
	}
	x := int32(bits.TrailingZeros64(w))
	for l--; l >= 0; l-- {
		x = x<<6 | int32(bits.TrailingZeros64(slab[s.off[l]+x]))
	}
	return x
}
