package sim

import "repro/internal/tick"

// This file implements the open-flat engine's event structure: a
// two-level bucketed tick wheel (a calendar queue over fixed-point
// time). The open-system loop schedules completions and cancellation
// wake-ups whose spread — now to now + service time — is bounded in
// the common case by a few mean durations, which is exactly the regime
// a wheel turns O(log n) heap churn into O(1) bucket appends for. The
// heavy-tailed residue (a Pareto straggler scheduling an event far
// beyond the horizon) falls into an overflow heap instead of forcing a
// giant ring.
//
// # Structure
//
// Every event carries a tick timestamp; its absolute bucket number is
// abn = t >> shift, so a bucket spans 2^shift ticks. Three tiers, by
// abn relative to the wheel's current bucket cur:
//
//	abn ≤ cur                 active: a (t, machine) min-heap
//	cur < abn < cur+nBuckets  ring:   unsorted bucket abn & (nBuckets-1)
//	abn ≥ cur+nBuckets        overflow: a (t, machine) min-heap
//
// The invariant making pops correct is a strict separation: every
// active event has t < (cur+1)<<shift and every ring/overflow event
// has t ≥ (cur+1)<<shift, so the active heap's minimum is the global
// minimum. When the active heap drains, cur advances one bucket at a
// time, dumping ring bucket cur into the active heap (heapified by
// consecutive pushes) and sliding newly-in-horizon overflow events
// into the ring; when the ring is empty too, cur jumps straight to the
// overflow minimum's bucket instead of stepping through empty ticks.
//
// # Cancellation without deletion
//
// Cancelling a machine's scheduled completion never touches the wheel.
// Each event carries the machine's sequence number at push time; the
// machine's live event is the one whose seq matches its current
// counter, and a cancellation simply bumps the counter and pushes a
// replacement. Stale entries ride the wheel until popped and are
// skipped by the caller's seq check — O(1) per cancellation versus
// O(n) search-and-sift for true heap deletion, at the price of at most
// one dead entry per cancellation. The fuzz harness (FuzzOpenWheel)
// pins pop-order totality and the tier-routing invariants under random
// push/pop/invalidate interleavings.

// wheelBuckets is the ring size. Power of two so bucket indexing is a
// mask; 256 buckets × the default bucket width of mean-duration/16
// puts the horizon at 16 mean service times — events beyond that are
// tail stragglers and take the overflow path.
const wheelBuckets = 256

// wEvent is a wheel entry: a scheduled completion or wake-up for
// machine m at tick t. seq is the machine's sequence number at push
// time; the entry is live iff it still matches (see openWheel doc).
type wEvent struct {
	t   tick.Tick
	m   int32
	seq uint32
}

func wLess(a, b wEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.m < b.m
}

// wPush inserts ev into the binary min-heap h and returns the heap.
// Keys are not unique here — a stale entry can share (t, m) with its
// replacement — but at most one entry per machine is live, so the pop
// order of live events is still the total (t, machine) order and heap
// internals cannot change simulation results.
func wPush(h []wEvent, ev wEvent) []wEvent {
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// wPop removes and returns the minimum event.
func wPop(h []wEvent) ([]wEvent, wEvent) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		next := left
		if right := left + 1; right < last && wLess(h[right], h[left]) {
			next = right
		}
		if !wLess(h[next], h[i]) {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
	return h, top
}

// openWheel is the two-level calendar queue described in the file
// comment. The zero value is unusable; call reset first. All buffers
// are retained across resets, so a wheel cycling through same-shaped
// runs performs zero steady-state allocations.
type openWheel struct {
	active    []wEvent   // min-heap, abn ≤ cur
	ring      [][]wEvent // unsorted buckets, cur < abn < cur+wheelBuckets
	overflow  []wEvent   // min-heap, abn ≥ cur+wheelBuckets
	ringCount int        // total events across ring buckets
	size      int        // total events in the wheel
	shift     uint       // bucket width is 1<<shift ticks
	cur       int64      // current absolute bucket number
}

// reset prepares the wheel for a run starting at tick 0 with the given
// bucket-width shift, truncating every buffer in place.
func (w *openWheel) reset(shift uint) {
	w.active = w.active[:0]
	w.overflow = w.overflow[:0]
	if w.ring == nil {
		//lint:ignore hotalloc one-time lazy init on a wheel's first use; every later reset reuses it
		w.ring = make([][]wEvent, wheelBuckets)
	}
	for i := range w.ring {
		w.ring[i] = w.ring[i][:0]
	}
	w.ringCount = 0
	w.size = 0
	w.shift = shift
	w.cur = 0
}

// empty reports whether the wheel holds no entries (live or stale).
func (w *openWheel) empty() bool { return w.size == 0 }

// push inserts an event, routing it to its tier by absolute bucket
// number. Events are never pushed into the past relative to popped
// simulation time, but abn ≤ cur is routine (the current bucket spans
// 1<<shift ticks) and goes to the active heap.
func (w *openWheel) push(ev wEvent) {
	w.size++
	abn := int64(ev.t) >> w.shift
	switch {
	case abn <= w.cur:
		w.active = wPush(w.active, ev)
	case abn < w.cur+wheelBuckets:
		w.ring[abn&(wheelBuckets-1)] = append(w.ring[abn&(wheelBuckets-1)], ev)
		w.ringCount++
	default:
		w.overflow = wPush(w.overflow, ev)
	}
}

// settle restores the invariant that the active heap is non-empty
// whenever the wheel is, by advancing cur. Callers guarantee size > 0.
func (w *openWheel) settle() {
	for len(w.active) == 0 {
		if w.ringCount == 0 {
			// Ring empty: jump cur straight to the overflow minimum's
			// bucket instead of stepping through empty buckets one tick
			// of the ring at a time.
			w.cur = int64(w.overflow[0].t) >> w.shift
		} else {
			w.cur++
		}
		// Bucket cur enters the present: its events (all with abn ==
		// cur — ring residency implies abn uniquely determines the slot
		// within the horizon) heapify into active.
		b := w.ring[w.cur&(wheelBuckets-1)]
		for _, ev := range b {
			w.active = wPush(w.active, ev)
		}
		w.ringCount -= len(b)
		w.ring[w.cur&(wheelBuckets-1)] = b[:0]
		// Overflow events now inside the horizon slide into the ring
		// (or straight to active if their bucket is exactly cur). The
		// overflow heap pops in time order, so draining stops at the
		// first event still beyond the horizon.
		for len(w.overflow) > 0 {
			abn := int64(w.overflow[0].t) >> w.shift
			if abn >= w.cur+wheelBuckets {
				break
			}
			var ev wEvent
			w.overflow, ev = wPop(w.overflow)
			if abn <= w.cur {
				w.active = wPush(w.active, ev)
			} else {
				w.ring[abn&(wheelBuckets-1)] = append(w.ring[abn&(wheelBuckets-1)], ev)
				w.ringCount++
			}
		}
	}
}

// peek returns the earliest entry (live or stale) without removing it.
// The wheel must be non-empty. The open loop uses the peeked time to
// interleave the arrival stream: arrivals at or before the next event
// are admitted first (the event model's tie rule, flatopen.go).
func (w *openWheel) peek() wEvent {
	w.settle()
	return w.active[0]
}

// pop removes and returns the earliest entry. The wheel must be
// non-empty. Liveness (the seq check) is the caller's concern.
func (w *openWheel) pop() wEvent {
	w.settle()
	var ev wEvent
	w.active, ev = wPop(w.active)
	w.size--
	return ev
}

// wheelShift picks the bucket-width shift for a run from the mean
// executed duration in ticks: buckets of roughly mean/16 put ~16
// buckets across a typical service time and the 256-bucket horizon at
// ~16 mean durations. Degenerate means (zero-duration tasks) get the
// minimum 1-tick bucket; the wheel's overflow jump keeps sparse wheels
// cheap regardless of shift, so the choice only tunes constants.
func wheelShift(meanTicks tick.Tick) uint {
	w := int64(meanTicks) / 16
	shift := uint(0)
	for w > 1 && shift < 62 {
		w >>= 1
		shift++
	}
	return shift
}
