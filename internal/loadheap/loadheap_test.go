package loadheap

import (
	"testing"

	"repro/internal/rng"
)

// naive is the scan the heap replaces: least load, lowest index first.
type naive []float64

func (l naive) minID() int {
	best := 0
	for i := range l {
		if l[i] < l[best] {
			best = i
		}
	}
	return best
}

func (l naive) maxLoad() float64 {
	max := 0.0
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	return max
}

// TestMinIDPrefersLowestIndexOnTies pins LPT's tie rule where it
// lives: among equally loaded machines the heap must name the lowest
// index, at reset and after every update.
func TestMinIDPrefersLowestIndexOnTies(t *testing.T) {
	var h Heap
	h.Reset(5)
	if h.Len() != 5 || h.MinID() != 0 || h.MinLoad() != 0 {
		t.Fatalf("after Reset: len %d min (%d, %v), want 5 and (0, 0)", h.Len(), h.MinID(), h.MinLoad())
	}
	// Equal deltas walk the machines in index order, then wrap.
	for round := 0; round < 3; round++ {
		for want := 0; want < 5; want++ {
			if got := h.MinID(); got != want {
				t.Fatalf("round %d: MinID = %d, want %d", round, got, want)
			}
			h.AddToMin(2)
		}
	}
	// Machines 1 and 3 tie below the rest: 1 first, then 3.
	h.Reset(4)
	for _, d := range []float64{5, 1, 5, 1} {
		h.AddToMin(d)
	}
	if h.MinID() != 1 {
		t.Fatalf("tie between 1 and 3: MinID = %d, want 1", h.MinID())
	}
	h.AddToMin(10)
	if h.MinID() != 3 {
		t.Fatalf("after loading 1: MinID = %d, want 3", h.MinID())
	}
}

// TestMatchesNaiveScan drives the heap and a linear scan with the same
// deltas — drawn from a few values so that ties are constant — and
// requires the same machine, the same float load and the same maximum
// at every step.
func TestMatchesNaiveScan(t *testing.T) {
	src := rng.New(41)
	var h Heap
	for _, m := range []int{1, 2, 3, 8, 33} {
		h.Reset(m)
		ref := make(naive, m)
		for step := 0; step < 40*m; step++ {
			id := ref.minID()
			if h.MinID() != id || h.MinLoad() != ref[id] {
				t.Fatalf("m=%d step %d: heap min (%d, %v), scan (%d, %v)",
					m, step, h.MinID(), h.MinLoad(), id, ref[id])
			}
			d := float64(src.Intn(4)) / 3
			ref[id] += d
			h.AddToMin(d)
			if h.MaxLoad() != ref.maxLoad() {
				t.Fatalf("m=%d step %d: MaxLoad = %v, scan %v", m, step, h.MaxLoad(), ref.maxLoad())
			}
		}
	}
}

// TestResetReuse checks that a used heap resets to all-zero loads with
// ids in order whether it shrinks, grows within capacity or outgrows
// it, and that shrinking and regrowing does not allocate.
func TestResetReuse(t *testing.T) {
	var h Heap
	for _, m := range []int{6, 3, 6, 40, 1} {
		h.Reset(m)
		if h.Len() != m || h.MaxLoad() != 0 {
			t.Fatalf("Reset(%d): len %d max %v, want %d and 0", m, h.Len(), h.MaxLoad(), m)
		}
		for want := 0; want < m; want++ {
			if got := h.MinID(); got != want {
				t.Fatalf("Reset(%d): machine %d popped at position %d", m, got, want)
			}
			h.AddToMin(1 + float64(want))
		}
	}
	h.Reset(40)
	if allocs := testing.AllocsPerRun(20, func() {
		h.Reset(7)
		h.AddToMin(3)
		h.Reset(40)
	}); allocs != 0 {
		t.Fatalf("Reset within capacity allocates %v times", allocs)
	}
}
