package sim

import "math/bits"

// rankLevels bounds a rankSet's height: 64^6 > 2^31 ranks.
const rankLevels = 6

// rankSet is the engine's pending set: a set of ranks in [0, size)
// held as a 64-ary bitmap in a caller-owned slab. Level 0 has a bit per
// rank, and each level above has a bit per word of the one below, set
// exactly while that word is non-empty, up to a single top word. push
// sets a bit, min is one trailing-zeros count per level, and remove
// clears a bit, and a summary bit once its word empties: O(log64 size)
// each, with no comparisons and no data movement. lo, a lower bound on
// the least rank, lets min answer from one level-0 word while the
// minimum stays in it, as it does for a set popped in rank order.
type rankSet struct {
	off    [rankLevels]int32 // slab offset of each level's words, level 0 first
	levels int32
	lo     int32 // no rank below lo is in the set
}

// layout places a set over size ranks at word base of the slab and
// returns the first word past it. The slab must be zeroed: an all-zero
// region is the empty set.
func (s *rankSet) layout(base int32, size int) int32 {
	s.levels, s.lo = 0, 0
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

// fill adds every rank in [0, size) to an empty set laid out over at
// least size ranks: the whole words at each level, then the partial one.
func (s *rankSet) fill(slab []uint64, size int) {
	for l := int32(0); l < s.levels && size > 0; l++ {
		w := slab[s.off[l]:]
		full := size >> 6
		for x := range w[:full] {
			w[x] = ^uint64(0)
		}
		if rem := size & 63; rem != 0 {
			w[full] = 1<<uint(rem) - 1
		}
		size = (size + 63) >> 6
	}
}

// push adds rank x.
func (s *rankSet) push(slab []uint64, x int32) {
	s.lo = min(s.lo, x)
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
	if x := s.peek(slab); x >= 0 {
		return x
	}
	return s.descend(slab)
}

// peek is min while the least rank lies in lo's level-0 word, and -1
// otherwise; small enough to inline where min is hot.
func (s *rankSet) peek(slab []uint64) int32 {
	if w := slab[s.off[0]+s.lo>>6] >> uint(s.lo&63); w != 0 {
		return s.lo + int32(bits.TrailingZeros64(w))
	}
	return -1
}

// descend is min off lo's word, which it moves to the answer.
func (s *rankSet) descend(slab []uint64) int32 {
	x := int32(0)
	// Descend from the top word: one trailing-zeros count per level, the
	// summary bits guaranteeing a non-empty word below every set bit.
	for l := s.levels - 1; l >= 0; l-- {
		w := slab[s.off[l]+x]
		if w == 0 {
			return -1
		}
		x = x<<6 | int32(bits.TrailingZeros64(w))
	}
	s.lo = x
	return x
}
