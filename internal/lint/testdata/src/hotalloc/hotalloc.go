// Package hotalloc exercises the zero-alloc analyzer: the deny-listed
// constructs inside annotated functions, propagation through local and
// cross-package calls, the allowed constructs, and the escape hatch.
package hotalloc

import (
	"fmt"
	"strconv"

	"hotallocdep"
)

type point struct {
	x, y int
}

// Spin is an annotated seed; the obligation propagates to everything
// it statically reaches, including hotallocdep.Index.
//
//perf:hotpath
func Spin(keys []string, xs []int) int {
	m := hotallocdep.Index(keys)
	var r hotallocdep.Ring[int]
	r.Push(len(m))
	total := hotallocdep.Sum(xs) + localAlloc() + clean(xs)
	return total + len(m)
}

// localAlloc is unannotated but reachable from Spin.
func localAlloc() int {
	xs := []int{1, 2, 3} // want "hotalloc: slice literal in hot path .reachable from //perf:hotpath Spin."
	return len(xs)
}

// clean is reachable too, and allocation-free: no finding.
func clean(xs []int) int {
	acc := 0
	for _, x := range xs {
		acc += x
	}
	return acc
}

// notHot allocates freely: nothing annotated reaches it.
func notHot() []int {
	return make([]int, 8)
}

// constructs is its own seed and trips each deny-listed construct
// once; the by-value struct literal and the append are allowed.
//
//perf:hotpath
func constructs(s string, xs []int, v point) int {
	f := func() int { return 1 } // want "hotalloc: closure creation in hot path"
	m := map[int]int{}           // want "hotalloc: map literal in hot path"
	p := new(int)                // want "hotalloc: new in hot path"
	bp := &point{1, 2}           // want "hotalloc: address-taken composite literal in hot path"
	s2 := s + "!"                // want "hotalloc: string concatenation in hot path"
	bs := []byte(s)              // want "hotalloc: string conversion in hot path"
	var box interface{} = 0
	box = interface{}(v) // want "hotalloc: interface conversion .boxing. in hot path"
	fmt.Println(s2, box) // want "hotalloc: fmt.Println call in hot path"
	onStack := point{3, 4}
	xs = append(xs, onStack.x, onStack.y)
	return f() + len(m) + *p + bp.x + len(bs) + len(xs)
}

// parseToken converts a byte token for strconv in place: the copy is a
// stack buffer's, so no finding. The same conversion kept in a variable
// first, or handed to anything else, is one.
//
//perf:hotpath
func parseToken(tok []byte) (float64, int) {
	f, _ := strconv.ParseFloat(string(tok), 64)
	s := string(tok) // want "hotalloc: string conversion in hot path"
	n, _ := strconv.Atoi(s)
	m, _ := strconv.Atoi(fmt.Sprint(n)) // want "hotalloc: fmt.Sprint call in hot path"
	return f, m + len(fmt.Sprint(string(tok))) // want "hotalloc: fmt.Sprint call in hot path" "hotalloc: string conversion in hot path"
}

// coldError shows the escape hatch on a cold error path.
//
//perf:hotpath
func coldError(fail bool) error {
	if fail {
		//lint:ignore hotalloc cold error path: the run is over, allocation is fine
		return fmt.Errorf("spin failed")
	}
	return nil
}

// The remainder mirrors the shape of the simulator's open replay loop
// (Runner.replaySpan): an annotated method whose obligation
// flows through method calls and pointer-threaded scratch slices, with
// value-struct event pushes and cohort merges that must stay allowed,
// a lazy first-use init behind the escape hatch, and a per-call make
// that must still be caught through the method chain.

type event struct {
	t int64
	m int32
}

type cohort struct {
	t    int64
	mask uint64
}

type replayRunner struct {
	wheel  []event
	parks  []cohort
	lookup []int32
}

//perf:hotpath
func (r *replayRunner) replaySpan(ts []int64) int {
	r.ensureLookup(len(ts))
	for _, t := range ts {
		// Value literal into an append: the allowed steady-state push.
		r.wheel = append(r.wheel, event{t: t, m: int32(len(r.wheel))})
		r.parks = parkMerge(r.parks, t, 1)
	}
	return len(r.wheel) + r.scratch()
}

// parkMerge is reachable from the seed; its append reuses capacity in
// the steady state, so it carries no finding.
func parkMerge(parks []cohort, t int64, mask uint64) []cohort {
	for i := range parks {
		if parks[i].t == t {
			parks[i].mask |= mask
			return parks
		}
	}
	return append(parks, cohort{t: t, mask: mask})
}

// ensureLookup allocates only on a runner's first use, behind the
// escape hatch.
func (r *replayRunner) ensureLookup(n int) {
	if r.lookup == nil {
		//lint:ignore hotalloc one-time lazy init; steady-state calls reuse it
		r.lookup = make([]int32, n)
	}
}

// scratch allocates on every call and is reachable from the annotated
// method: the finding must name the method seed.
func (r *replayRunner) scratch() int {
	tmp := make([]int, 4) // want "hotalloc: make in hot path .reachable from //perf:hotpath replaySpan."
	return len(tmp)
}
