package sim

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/tick"
)

// wheelModel is the oracle for the wheel fuzz: a plain slice with
// linear minimum extraction. Same multiset semantics, no tiers.
type wheelModel []wEvent

func (m *wheelModel) push(ev wEvent) { *m = append(*m, ev) }

// popMin removes and returns an entry with the minimum (t, machine)
// key, preferring one matching seq (the wheel may emit duplicates of
// an equal key in either order; seq disambiguates the assertion).
func (m *wheelModel) popMin(matchSeq uint32) wEvent {
	h := *m
	best := 0
	for i := 1; i < len(h); i++ {
		if wLess(h[i], h[best]) ||
			(!wLess(h[best], h[i]) && h[i].seq == matchSeq && h[best].seq != matchSeq) {
			best = i
		}
	}
	ev := h[best]
	h[best] = h[len(h)-1]
	*m = h[:len(h)-1]
	return ev
}

// wheelTime draws a timestamp in one of three regimes so every tier of
// the wheel is exercised: near the current bucket (active), within the
// ring horizon, and far beyond it (overflow; also forces the
// empty-ring jump when such an event is next).
func wheelTime(r *rng.Source, base tick.Tick, shift uint) tick.Tick {
	span := tick.Tick(1) << shift
	switch r.Intn(4) {
	case 0: // at or near the current bucket
		return base + tick.Tick(r.Intn(int(span)+1))
	case 1, 2: // inside the ring horizon
		return base + tick.Tick(r.Intn(int(span)*wheelBuckets+1))
	default: // beyond the horizon: overflow tier
		return base + tick.Tick(wheelBuckets)*span + tick.Tick(r.Intn(1<<20))
	}
}

// runWheelOps drives an openWheel and the oracle through the same
// random op sequence, checking pop-order totality, the seq-liveness
// rule, and size bookkeeping. Shared by the fuzz target and the
// deterministic coverage test.
func runWheelOps(t *testing.T, ops int, shift uint, machines int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	var w openWheel
	w.reset(shift)
	var model wheelModel
	// Caller-side sequence counters and the latest pushed event per
	// machine: when a live event pops, it must be exactly the machine's
	// most recent push (everything older was invalidated or popped).
	seqNow := make([]uint32, machines)
	last := make([]wEvent, machines)
	var clock tick.Tick // lower bound for new pushes, as in the runner

	for op := 0; op < ops; op++ {
		if w.empty() != (len(model) == 0) || w.size != len(model) {
			t.Fatalf("op %d: size %d (empty=%v), model %d", op, w.size, w.empty(), len(model))
		}
		if w.empty() || r.Intn(3) > 0 {
			m := int32(r.Intn(machines))
			// The runner's wake discipline: every push bumps the
			// machine's counter, so any prior entry for m goes stale —
			// at most one live entry per machine at any time.
			seqNow[m]++
			ev := wEvent{t: wheelTime(r, clock, shift), m: m, seq: seqNow[m]}
			w.push(ev)
			model.push(ev)
			last[m] = ev
			continue
		}
		if r.Intn(2) == 0 {
			got := w.peek()
			if want := model.popMin(got.seq); got != want {
				t.Fatalf("op %d: peek %+v, model min %+v", op, got, want)
			} else {
				model.push(want) // peek does not consume
			}
			continue
		}
		got := w.pop()
		want := model.popMin(got.seq)
		if got != want {
			t.Fatalf("op %d: pop %+v, model min %+v", op, got, want)
		}
		if got.t > clock {
			clock = got.t
		}
		if got.seq == seqNow[got.m] && got != last[got.m] {
			t.Fatalf("op %d: live pop %+v is not machine %d's latest push %+v",
				op, got, got.m, last[got.m])
		}
	}
	// Drain: the remaining pops must come out in full (t, machine)
	// order.
	prev := wEvent{t: -1, m: -1}
	for !w.empty() {
		got := w.pop()
		if want := model.popMin(got.seq); got != want {
			t.Fatalf("drain: pop %+v, model min %+v", got, want)
		}
		if wLess(got, prev) {
			t.Fatalf("drain: pop %+v after %+v breaks (t, machine) order", got, prev)
		}
		prev = got
	}
	if len(model) != 0 {
		t.Fatalf("wheel drained with %d events left in the model", len(model))
	}
}

// wheelFuzzMachines is the machine-count axis of the wheel fuzz: the
// original seven, and counts on both sides of the 64- and 128-machine
// word boundaries.
var wheelFuzzMachines = [...]int{7, 65, 127, 128, 192}

// FuzzOpenWheel fuzzes the calendar-queue invariants of the open
// engine's event structure: pops follow the total (t, machine) order
// across all three tiers (active heap, ring bucket, overflow heap —
// including the empty-ring jump), seq-invalidated entries surface as
// stale exactly once, and size bookkeeping matches a flat oracle under
// arbitrary push/peek/pop interleavings.
func FuzzOpenWheel(f *testing.F) {
	f.Add(uint16(64), uint8(0), uint64(1))
	f.Add(uint16(300), uint8(10), uint64(2))
	f.Add(uint16(200), uint8(20), uint64(0xfeed))
	f.Add(uint16(500), uint8(4), uint64(42))
	f.Add(uint16(31), uint8(62), uint64(7)) // max shift: every event in bucket 0
	// Past 64 machines, as the multi-word race path's local winner
	// indices reach the wheel: byte/24 picks the machine count.
	f.Add(uint16(400), uint8(24+10), uint64(65))
	f.Add(uint16(600), uint8(72+0), uint64(128))
	f.Add(uint16(500), uint8(96+20), uint64(192))
	f.Fuzz(func(t *testing.T, opsRaw uint16, shiftRaw uint8, seed uint64) {
		ops := 1 + int(opsRaw)%600
		shift := uint(shiftRaw) % 24
		machines := wheelFuzzMachines[int(shiftRaw/24)%len(wheelFuzzMachines)]
		runWheelOps(t, ops, shift, machines, seed)
		// The same axes, as the one open replay a theorem covers: ops
		// tasks, α from 1 to 3.875.
		checkOpenBatchCorner(t, ops, machines, 1+float64(shift)/8, seed)
	})
}

// checkOpenBatchCorner replays the open engine's closed-batch corner —
// every arrival at zero, cancel-on-start, no straggler hook — over a
// fully replicated placement in LPT order. That is LPT-No Restriction,
// so the schedule of winning replicas (here the only replicas that ran)
// must respect its guarantee against LPT's upper bound on C*.
func checkOpenBatchCorner(t *testing.T, n, m int, alpha float64, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	est := make([]float64, n)
	act := make([]float64, n)
	for j := range est {
		est[j] = r.Uniform(1, 10)
		act[j] = est[j] * r.BoundedFactor(alpha)
	}
	in, err := task.New(m, alpha, est, act)
	if err != nil {
		t.Fatal(err)
	}
	open, err := RunFlatOpen(in, placement.Everywhere(n, m), lptOrder(in), make([]float64, n),
		OpenOptions{Policy: CancelOnStart})
	if err != nil {
		t.Fatal(err)
	}
	upper, _ := opt.LPT(act, m)
	if mk, rho := open.Schedule.Makespan(), bounds.LPTNoRestriction(m, alpha); !bounds.Holds(mk, rho, upper) {
		t.Fatalf("n=%d m=%d α=%g seed=%d: makespan %v breaks LPT-No Restriction's %v against C* ≤ %v",
			n, m, alpha, seed, mk, rho, upper)
	}
}

// TestOpenWheelOrdering is the deterministic slice of the fuzz
// property, so plain go test covers all three tiers without -fuzz.
func TestOpenWheelOrdering(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, shift := range []uint{0, 3, 10, 20} {
			runWheelOps(t, 400, shift, wheelFuzzMachines[int(seed)%len(wheelFuzzMachines)], 1000+seed)
		}
	}
}

// TestOpenWheelReuse pins the pooling contract: a wheel reused across
// reset cycles behaves identically to a fresh one.
func TestOpenWheelReuse(t *testing.T) {
	var w openWheel
	for round := 0; round < 3; round++ {
		w.reset(5)
		r := rng.New(uint64(round))
		for i := 0; i < 200; i++ {
			w.push(wEvent{t: tick.Tick(r.Intn(1 << 16)), m: int32(i % 9), seq: uint32(i)})
		}
		prev := wEvent{t: -1, m: -1}
		for !w.empty() {
			ev := w.pop()
			if wLess(ev, prev) {
				t.Fatalf("round %d: pop %+v after %+v out of order", round, ev, prev)
			}
			prev = ev
		}
	}
}

func TestWheelShift(t *testing.T) {
	cases := []struct {
		mean tick.Tick
		want uint
	}{
		{0, 0},
		{15, 0}, // mean/16 < 1: minimum bucket
		{16, 0}, // w=1: still the minimum
		{64, 2}, // w=4 → shift 2
		{1 << 30, 26},
		{tick.Max, 58}, // Max/16 = 2^59−1: halves to 1 after 58 shifts
	}
	for _, c := range cases {
		if got := wheelShift(c.mean); got != c.want {
			t.Errorf("wheelShift(%d) = %d, want %d", c.mean, got, c.want)
		}
	}
}
