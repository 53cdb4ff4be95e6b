// Package keysort is the repo's one sort by float64 key, largest first:
// the LPT visiting order of phase 1, the LPT priority list of phase 2,
// the reference schedules of the memory-aware model and the descending
// copy the optimum's kernels read all come from here.
//
// The order is defined by a comparator — (key descending, id
// ascending) for OrderDesc, slices.Sort reversed for SortDesc — and
// below radixMin elements that comparator does the sorting. At and
// above it a stable LSD radix sort over an order-preserving bit image
// of the keys produces the same permutation in O(n): stability over
// ids loaded in ascending order is the id tie-break. The scratch is a
// value the caller owns and reuses; the package keeps no state.
package keysort

import (
	"math"
	"slices"
)

// radixMin is the length from which neither entry point is slower on
// the radix passes than on its comparison sort, measured with
// BenchmarkOrderDesc and BenchmarkSortDesc: the passes cost about 2 µs
// before the first element (eight 256-counter histograms to clear and
// sum) and then beat the index sort from n ≈ 200 and the plain float
// sort from n ≈ 900. The 6- and 200-task items of the serving
// workloads stay below it; the 2,000-, 4,000- and 10,000-task instances
// are above.
const radixMin = 1024

// A 64-bit image is sorted as eight 8-bit digits.
const (
	digits  = 8
	buckets = 256
)

// pair is a key image with the id (OrderDesc) it carries along.
type pair struct {
	img uint64
	id  uint32
}

// Scratch holds the radix sort's two element buffers and its digit
// histograms, all allocated by the first input long enough to need
// them: a Scratch that only ever sees short inputs — one per request in
// the serving tier — costs its few words. The zero value is ready to
// use; a reused Scratch sorts same-sized inputs without allocating. Not
// safe for concurrent use.
type Scratch struct {
	a, b []pair
	hist *[digits][buckets]uint32
}

// descImage maps a non-NaN float64 to a uint64 whose ascending order is
// the float's descending order: a non-negative float's bits grow with
// its value, so all but the sign are flipped; a negative float's bits
// grow with its magnitude and its sign bit already puts it after every
// non-negative one.
func descImage(bits uint64) uint64 {
	return bits ^ (^uint64(int64(bits)>>63) >> 1)
}

// OrderDesc writes into dst (reused when its capacity allows) the ids
// 0..len(keys)-1 sorted by (keys[id] descending, id ascending) and
// returns it. −0 and +0 are one key, as they are to ==. The comparator
// is a strict total order unless a key is NaN; then the comparison
// sort below runs at every length, so the outcome, while meaningless,
// is the one the callers' own comparators always gave.
func (s *Scratch) OrderDesc(keys []float64, dst []int) []int {
	n := len(keys)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	if n >= radixMin && s.load(keys, false) {
		for i, p := range s.sorted() {
			dst[i] = int(p.id)
		}
		return dst
	}
	compareOrder(keys, dst)
	return dst
}

// compareOrder is the definition of OrderDesc's order and its
// implementation for short inputs.
func compareOrder(keys []float64, dst []int) {
	for i := range dst {
		dst[i] = i
	}
	slices.SortFunc(dst, func(a, b int) int {
		ka, kb := keys[a], keys[b]
		if ka != kb {
			if ka > kb {
				return -1
			}
			return 1
		}
		return a - b
	})
}

// SortDesc overwrites buf with a copy of vals sorted descending, NaNs
// last, and returns it: bit for bit slices.Sort followed by
// slices.Reverse. Equal floats are interchangeable, so the radix path
// needs no tie-break — except between −0 and +0, which compare equal
// and differ in bits; an input holding a −0 or a NaN takes the
// comparison path at every length.
func (s *Scratch) SortDesc(vals, buf []float64) []float64 {
	n := len(vals)
	if n >= radixMin && s.load(vals, true) {
		if cap(buf) < n {
			buf = make([]float64, n)
		}
		buf = buf[:n]
		for i, p := range s.sorted() {
			buf[i] = math.Float64frombits(descImage(p.img)) // the image is its own inverse
		}
		return buf
	}
	buf = append(buf[:0], vals...)
	slices.Sort(buf)
	slices.Reverse(buf)
	return buf
}

// load fills s.a with the images of keys under ids 0..n-1 and counts
// every digit's histogram in the same pass. It reports false, with the
// scratch in no particular state, when the radix path cannot stand in
// for the comparator: on a NaN, and with exactZero on a −0.
func (s *Scratch) load(keys []float64, exactZero bool) bool {
	n := len(keys)
	if cap(s.a) < n {
		s.a = make([]pair, n)
		s.b = make([]pair, n)
	}
	s.a, s.b = s.a[:n], s.b[:n]
	if s.hist == nil {
		s.hist = new([digits][buckets]uint32)
	}
	h := s.hist
	*h = [digits][buckets]uint32{}
	for i, k := range keys {
		bits := math.Float64bits(k)
		if k == 0 {
			if exactZero && bits != 0 {
				return false
			}
			bits = 0
		} else if k != k {
			return false
		}
		img := descImage(bits)
		s.a[i] = pair{img: img, id: uint32(i)}
		// Unrolled: a constant shift is one instruction, a variable one
		// several, and this is eight counters for every key.
		h[0][byte(img)]++
		h[1][byte(img>>8)]++
		h[2][byte(img>>16)]++
		h[3][byte(img>>24)]++
		h[4][byte(img>>32)]++
		h[5][byte(img>>40)]++
		h[6][byte(img>>48)]++
		h[7][byte(img>>56)]++
	}
	return true
}

// sorted runs the stable least-significant-digit passes over what load
// prepared and returns the elements in ascending image order. A digit
// on which every image agrees would move nothing and is skipped: sign
// and high exponent bits, for keys of one magnitude.
func (s *Scratch) sorted() []pair {
	a, b := s.a, s.b
	n := uint32(len(a))
	for d := 0; d < digits; d++ {
		h := &s.hist[d]
		shift := uint(d*8) & 63 // the mask tells the compiler the shift is in range
		if h[byte(a[0].img>>shift)] == n {
			continue
		}
		sum := uint32(0)
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, p := range a {
			k := byte(p.img >> shift)
			b[h[k]] = p
			h[k]++
		}
		a, b = b, a
	}
	return a
}
