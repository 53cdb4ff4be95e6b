// Package hotallocdep supplies callees for the cross-package
// hot-closure test: the annotation lives in the root package, the
// allocation in this one.
package hotallocdep

// Index allocates a map; it is only a finding because the root's
// annotated Spin reaches it through the call graph.
func Index(keys []string) map[string]int {
	out := make(map[string]int, len(keys)) // want "hotalloc: make in hot path .reachable from //perf:hotpath Spin."
	for i, k := range keys {
		out[k] = i
	}
	return out
}

// Ring is generic: the root reaches Push through an instantiation,
// Ring[int], and the finding lands on the one declaration.
type Ring[T any] struct{ buf []T }

func (r *Ring[T]) Push(x T) {
	r.buf = append(make([]T, 0, 1), x) // want "hotalloc: make in hot path .reachable from //perf:hotpath Spin."
}

// Sum is allocation-free and equally reachable: no finding.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
