package opt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startShapes covers every way Estimate answers: without the memo (no
// tasks, m = 1, n ≤ m) and through it on the exact search and on the
// bounds alone, at a mid size just above the exact search and at a
// large one.
var startShapes = []struct {
	name    string
	n, m    int
	trivial bool
}{
	{"empty", 0, 3, true},
	{"m=1", 5, 1, true},
	{"n<=m", 4, 6, true},
	{"exact", 12, 3, false},
	{"mid", 36, 12, false},
	{"bounds", 300, 8, false},
}

// settle waits for the goroutine count to come back to base: a joined
// solve has signalled its waiter but may still be returning.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartEstimateMatchesEstimate holds StartEstimate's Wait to
// Estimate bit for bit, cold and warm, and to Estimate's counting: one
// call, and on the memo one miss (cold) or one hit (warm). A hit and a
// trivial instance are answered at once, with no goroutine to join; a
// second Wait gives the first one's Result.
func TestStartEstimateMatchesEstimate(t *testing.T) {
	for i, sh := range startShapes {
		t.Run(sh.name, func(t *testing.T) {
			times := randomTimes(sh.n, uint64(40+i))
			ResetCache()
			want := Estimate(times, sh.m, 0)
			ResetCache()
			for _, memo := range []string{"cold", "warm"} {
				calls, hits, misses := estimateCalls.Load(), cacheHits.Load(), cacheMisses.Load()
				base := runtime.NumGoroutine()
				p := StartEstimate(times, sh.m, 0)
				if solving := p.call != nil; solving != (memo == "cold" && !sh.trivial) {
					t.Errorf("%s: a solve started = %v", memo, solving)
				}
				sameResult(t, p.Wait(), want)
				sameResult(t, p.Wait(), want)
				settle(t, base)
				wantHits, wantMisses := int64(0), int64(0)
				switch {
				case sh.trivial:
				case memo == "cold":
					wantMisses = 1
				default:
					wantHits = 1
				}
				if d := estimateCalls.Load() - calls; d != 1 {
					t.Errorf("%s: %d estimate calls counted, want 1", memo, d)
				}
				if h, m := cacheHits.Load()-hits, cacheMisses.Load()-misses; h != wantHits || m != wantMisses {
					t.Errorf("%s: %d hits, %d misses counted, want %d, %d", memo, h, m, wantHits, wantMisses)
				}
			}
		})
	}
}

// TestStartEstimateHitAllocatesNothing: a memo hit is answered on the
// caller's goroutine from the memo, so warm scoring loops keep their
// zero allocations.
func TestStartEstimateHitAllocatesNothing(t *testing.T) {
	ResetCache()
	times := randomTimes(300, 5)
	Estimate(times, 8, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		p := StartEstimate(times, 8, 0)
		p.Wait()
	}); allocs != 0 {
		t.Fatalf("%v allocations per warm StartEstimate, want 0", allocs)
	}
}

// TestStartEstimateRaisesThePanic: a solve that panics (no machines)
// panics again in Wait, with Estimate's value, and leaves no goroutine
// behind; a Wait after that returns the zero Result.
func TestStartEstimateRaisesThePanic(t *testing.T) {
	times := randomTimes(3, 1)
	recovered := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	want := recovered(func() { Estimate(times, 0, 0) })
	if want == nil {
		t.Fatal("Estimate did not panic on m = 0")
	}
	ResetCache()
	base := runtime.NumGoroutine()
	p := StartEstimate(times, 0, 0)
	got := recovered(func() { p.Wait() })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Wait raised %v, Estimate %v", got, want)
	}
	settle(t, base)
	if res := p.Wait(); res != (Result{}) {
		t.Fatalf("Wait after the panic = %+v, want the zero Result", res)
	}
}

// TestStartEstimateConcurrent starts the same cold solves from several
// goroutines at once, each waiting on its own Pending: every Wait gives
// Estimate's Result and the memo ends up answering them.
func TestStartEstimateConcurrent(t *testing.T) {
	inputs := [][]float64{randomTimes(300, 11), randomTimes(36, 12), randomTimes(2000, 13)}
	ms := []int{8, 12, 64}
	want := make([]Result, len(inputs))
	ResetCache()
	for i, times := range inputs {
		want[i] = Estimate(times, ms[i], 0)
	}
	ResetCache()
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	got := make([][]Result, 6)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pending := make([]Pending, len(inputs))
			for i, times := range inputs {
				pending[i] = StartEstimate(times, ms[i], 0)
			}
			for i := range pending {
				got[g] = append(got[g], pending[i].Wait())
			}
		}()
	}
	wg.Wait()
	settle(t, base)
	for g := range got {
		for i := range inputs {
			sameResult(t, got[g][i], want[i])
		}
	}
	hits := cacheHits.Load()
	for i, times := range inputs {
		sameResult(t, Estimate(times, ms[i], 0), want[i])
	}
	if d := cacheHits.Load() - hits; d != int64(len(inputs)) {
		t.Fatalf("%d of %d solves were in the memo after their Waits", d, len(inputs))
	}
}

// TestColdStartEstimateFindsAScratch: a cold solve started from a new
// goroutine, with two collections before it — a serving process
// collects every few solves, which a sync.Pool alone does not survive —
// still finds a scratch. Each call allocates what the steady
// EstimateCold/n=2k,m=512 kernel does (2 allocations, 16,448 B: the
// memo's copy of its key) plus the call's own: the channel, the
// Pending's record and the two goroutines, 4 allocations and 304 B, and
// now and then a thread the runtime starts to run them (runtime.allocm
// and its goroutines, 7 allocations and about 6 KB). A rebuilt scratch
// is ~198 KB in about 20 allocations.
func TestColdStartEstimateFindsAScratch(t *testing.T) {
	const n, m, calls = 2_000, 512, 16
	ring := make([][]float64, calls)
	for i := range ring {
		ring[i] = randomTimes(n, uint64(100+i))
	}
	// One cold solve of each from a new goroutine, every call as the
	// measured ones make it: the memo's shard maps grown, a scratch sized,
	// the runtime's goroutines built.
	solve := func(times []float64) {
		done := make(chan struct{})
		go func() {
			p := StartEstimate(times, m, 0)
			p.Wait()
			close(done)
		}()
		<-done
	}
	for _, times := range ring {
		solve(times)
	}
	ResetCache()
	var before, after runtime.MemStats
	for i, times := range ring {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		solve(times)
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs > 2+4+7 || bytes > 16_448+8<<10 {
			t.Errorf("cold solve %d: %d allocs, %d B; want the kernel's 2 and 16,448 B plus the call's", i, allocs, bytes)
		}
	}
}
