package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tick"
)

// TestSortTraceAdversarial checks correctness of the trace sort on the
// worst case for the old insertion sort: a large block of equal-time
// events appended in reverse machine order.
func TestSortTraceAdversarial(t *testing.T) {
	const m = 500
	var tr []Event
	for i := m - 1; i >= 0; i-- {
		tr = append(tr,
			Event{Time: 1, Machine: i, Task: i, Kind: "start"},
			Event{Time: 1, Machine: i, Task: i, Kind: "finish"},
		)
	}
	sortTrace(tr)
	for i := 1; i < len(tr); i++ {
		if traceLess(tr[i], tr[i-1]) {
			t.Fatalf("trace out of order at %d: %+v before %+v", i, tr[i-1], tr[i])
		}
	}
	// All finishes precede all starts at the shared time.
	for i, ev := range tr {
		wantKind := "finish"
		if i >= m {
			wantKind = "start"
		}
		if ev.Kind != wantKind {
			t.Fatalf("event %d kind %q, want %q", i, ev.Kind, wantKind)
		}
	}
}

// adversarialTrace builds a trace in which every event shares one
// timestamp — the case that degraded the old insertion sort to O(n²).
func adversarialTrace(n int) []Event {
	r := rand.New(rand.NewSource(1))
	tr := make([]Event, n)
	for i := range tr {
		kind := "start"
		if i%2 == 0 {
			kind = "finish"
		}
		tr[i] = Event{Time: 1, Machine: r.Intn(n), Task: i, Kind: kind}
	}
	return tr
}

// BenchmarkSortTraceAdversarial measures sortTrace on the many-equal-
// time-finishes trace. With the former insertion sort this benchmark
// was quadratic (~n²/4 swaps per op); sort.SliceStable keeps it
// n·polylog(n).
func BenchmarkSortTraceAdversarial(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		src := adversarialTrace(n)
		buf := make([]Event, n)
		b.Run(benchSize(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				sortTrace(buf)
			}
		})
	}
}

// BenchmarkSortTraceNearSorted measures the common case: a trace that
// is already nearly in order, as produced by simulation append order.
func BenchmarkSortTraceNearSorted(b *testing.B) {
	const n = 100_000
	src := make([]Event, n)
	for i := range src {
		kind := "start"
		if i%2 == 1 {
			kind = "finish"
		}
		src[i] = Event{Time: tick.Tick(i / 2), Machine: i % 7, Task: i / 2, Kind: kind}
	}
	buf := make([]Event, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sortTrace(buf)
	}
}

func benchSize(n int) string {
	switch n {
	case 1_000:
		return "n=1k"
	case 10_000:
		return "n=10k"
	case 100_000:
		return "n=100k"
	}
	return fmt.Sprintf("n=%d", n)
}
