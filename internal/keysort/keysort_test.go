package keysort

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// stableOrder is the oracle: the stable sort by key descending that
// memaware.ExactMapping ran, which on ids loaded ascending is (key
// descending, id ascending) — the permutation algo.appendLPTOrder,
// algo.oracleLPT and opt.LPT got from their three-way comparators.
func stableOrder(keys []float64) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	return order
}

func sortReverse(vals []float64) []float64 {
	out := slices.Clone(vals)
	slices.Sort(out)
	slices.Reverse(out)
	return out
}

var denormal = math.Float64frombits(1)

// generators cover what an order-preserving bit image can get wrong:
// ties (stability is the id tie-break), one repeated key (every digit
// pass is skipped), denormals and both zeros (the bottom of the
// exponent range; −0 == +0 yet their bits differ), infinities, negative
// keys (their bits order backwards) and magnitudes spread over the
// whole exponent range (no digit is skipped).
func generators(src *rng.Source) []generator {
	zeros := []float64{0, math.Copysign(0, -1), denormal, -denormal, 2 * denormal, 1}
	return []generator{
		{"uniform", func() float64 { return src.Uniform(1, 100) }},
		{"ties", func() float64 { return float64(1 + src.Intn(4)) }},
		{"all-equal", func() float64 { return 7.25 }},
		{"zeros", func() float64 { return zeros[src.Intn(len(zeros))] }},
		{"signed", func() float64 { return src.Uniform(-5, 5) }},
		{"inf", func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, 3, 0}[src.Intn(5)]
		}},
		{"magnitudes", func() float64 { return math.Exp(src.Uniform(-700, 700)) }},
	}
}

type generator struct {
	name string
	draw func() float64
}

var lengths = []int{0, 1, 2, 100, radixMin - 1, radixMin, radixMin + 1, 10_000}

func draw(n int, gen func() float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = gen()
	}
	return vals
}

func TestOrderDescMatchesStableSort(t *testing.T) {
	var s Scratch // one scratch across every shape: a stale buffer must not show
	for _, g := range generators(rng.New(17)) {
		for _, n := range lengths {
			keys := draw(n, g.draw)
			got := s.OrderDesc(keys, nil)
			if want := stableOrder(keys); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: order differs from the stable sort's", g.name, n)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestSortDescMatchesSortReverse holds SortDesc to slices.Sort +
// slices.Reverse bit for bit, NaN and −0 inputs included: those take
// the comparison path whatever the length, which the last two
// generators force above radixMin.
func TestSortDescMatchesSortReverse(t *testing.T) {
	var s Scratch
	src := rng.New(18)
	gens := append(generators(src),
		generator{"nan", func() float64 {
			if src.Intn(50) == 0 {
				return math.NaN()
			}
			return src.Uniform(0, 9)
		}},
		generator{"rare-negative-zero", func() float64 {
			if src.Intn(500) == 0 {
				return math.Copysign(0, -1)
			}
			return float64(src.Intn(3))
		}})
	var buf []float64
	for _, g := range gens {
		for _, n := range lengths {
			vals := draw(n, g.draw)
			buf = s.SortDesc(vals, buf)
			if !sameBits(buf, sortReverse(vals)) {
				t.Fatalf("%s n=%d: differs from slices.Sort + slices.Reverse", g.name, n)
			}
		}
	}
}

// TestOrderDescWithNaNTakesTheComparator: with a NaN key no order is
// defined; what is promised is the comparison sort's outcome from ids
// in ascending order, at every length.
func TestOrderDescWithNaNTakesTheComparator(t *testing.T) {
	src := rng.New(19)
	keys := draw(4*radixMin, func() float64 { return src.Uniform(0, 9) })
	keys[radixMin] = math.NaN()
	want := make([]int, len(keys))
	compareOrder(keys, want)
	var s Scratch
	if got := s.OrderDesc(keys, nil); !slices.Equal(got, want) {
		t.Fatal("NaN input did not fall back to the comparison sort")
	}
}

func TestReusedScratchDoesNotAllocate(t *testing.T) {
	src := rng.New(20)
	keys := draw(10_000, func() float64 { return src.Uniform(1, 100) })
	small := keys[:radixMin-1]
	var s Scratch
	order := s.OrderDesc(keys, nil)
	desc := s.SortDesc(keys, nil)
	if avg := testing.AllocsPerRun(10, func() {
		order = s.OrderDesc(keys, order)
		desc = s.SortDesc(keys, desc)
		order = s.OrderDesc(small, order)
		desc = s.SortDesc(small, desc)
	}); avg != 0 {
		t.Fatalf("%v allocs per run from a warmed scratch, want 0", avg)
	}
}

// TestShortInputsCostNoScratch: the serving tier sorts six keys on a
// fresh Scratch per request, so a Scratch must stay a few words until an
// input is long enough for the radix passes (an 8 KB histogram array
// inside the struct cost serve-small 17 % of its bytes per request).
func TestShortInputsCostNoScratch(t *testing.T) {
	if size := unsafe.Sizeof(Scratch{}); size > 64 {
		t.Errorf("Scratch is %d bytes, want the buffers behind pointers", size)
	}
	keys := []float64{4, 2, 6, 1, 5, 3}
	order, desc := make([]int, len(keys)), make([]float64, len(keys))
	if avg := testing.AllocsPerRun(10, func() {
		var s Scratch
		order = s.OrderDesc(keys, order)
		desc = s.SortDesc(keys, desc)
	}); avg != 0 {
		t.Errorf("%v allocs per short sort on a fresh scratch, want 0", avg)
	}
}

// BenchmarkOrderDesc is the measurement behind radixMin: both paths at
// the lengths around the cut-over and at the repo's instance sizes.
func BenchmarkOrderDesc(b *testing.B) {
	for _, n := range []int{6, 200, 512, radixMin, 2_000, 10_000} {
		src := rng.New(21)
		keys := draw(n, func() float64 { return src.Uniform(1, 100) })
		dst := make([]int, n)
		b.Run(fmt.Sprintf("compare/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compareOrder(keys, dst)
			}
		})
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var s Scratch
			for i := 0; i < b.N; i++ {
				s.load(keys, false)
				for i, p := range s.sorted() {
					dst[i] = int(p.id)
				}
			}
		})
	}
}

func BenchmarkSortDesc(b *testing.B) {
	for _, n := range []int{6, 200, 512, radixMin, 2_000, 10_000} {
		src := rng.New(22)
		vals := draw(n, func() float64 { return src.Uniform(1, 100) })
		buf := make([]float64, n)
		b.Run(fmt.Sprintf("compare/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = append(buf[:0], vals...)
				slices.Sort(buf)
				slices.Reverse(buf)
			}
		})
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var s Scratch
			for i := 0; i < b.N; i++ {
				s.load(vals, true)
				for i, p := range s.sorted() {
					buf[i] = math.Float64frombits(descImage(p.img))
				}
			}
		})
	}
}
