// Package tick fixes simulated time to int64 nanoticks so the
// simulator's event queue compares integers instead of floats.
//
// One tick is 1e-9 simulated seconds. The simulator (sim.Runner)
// converts every duration to ticks once at the edge, runs the whole
// event loop on int64 arithmetic — total ordering, no NaN, no negative
// zero, associative addition — and writes ticks into the schedule,
// which turns them into seconds only at its edges (JSON, charts). Integer
// time is what makes the sharded runner's merge argument exact: a
// machine's completion time is the int64 sum of its task ticks, which
// is the same value no matter how per-shard event loops interleave, so
// sharded and sequential runs agree bit-for-bit rather than within an
// epsilon.
//
// FromSeconds is the only float→tick path in the repo: a duration a
// schedule's producer converted any other way fails Verify's exact
// check against it. Rounding and range policy live here, in exactly
// one place:
//
//   - rounding is to the nearest tick, half away from zero
//     (math.Round), which is monotone: a ≤ b ⇒ FromSeconds(a) ≤
//     FromSeconds(b), so tick comparisons never contradict the float
//     order they quantized — they can only turn a strict < into a tie;
//   - NaN and ±Inf are rejected (ErrNotFinite);
//   - magnitudes at or beyond 2^63 ticks (≈292 simulated years) are
//     rejected (ErrOverflow) instead of silently wrapping;
//   - quantization error is at most half a tick (0.5e-9 s), and
//     sched.Schedule.Verify checks End−Start == FromSeconds(p_j) exactly.
package tick

import (
	"errors"
	"fmt"
	"math"
)

// Tick is a simulated-time instant or duration in nanoticks
// (1 tick = 1e-9 simulated seconds). Plain int64 comparison operators
// order Ticks; plain + adds them (use SatAdd when the operands are not
// known to be far from the range limit).
type Tick int64

// PerSecond is the number of ticks in one simulated second.
const PerSecond Tick = 1_000_000_000

// Max is the largest representable tick value. SatAdd clamps here, so
// Max acts as "simulated time overflow" — far beyond any meaningful
// schedule, but totally ordered and NaN-free.
const Max Tick = math.MaxInt64

// Conversion errors. FromSeconds wraps them with the offending value;
// match with errors.Is.
var (
	ErrNotFinite = errors.New("tick: time is NaN or infinite")
	ErrOverflow  = errors.New("tick: time overflows the int64 nanotick range")
)

// two63 is 2^63 as a float64 (exactly representable). A rounded
// nanotick magnitude at or beyond it does not fit in int64; the
// comparison must happen in float64, before the conversion, because a
// float→int conversion that overflows has implementation-defined
// results in Go.
const two63 = 9223372036854775808.0

// FromSeconds converts a float64 time in seconds to ticks, rounding to
// the nearest tick half away from zero. It rejects NaN, ±Inf, and any
// value whose rounded magnitude reaches 2^63 ticks. The conversion is
// monotone non-decreasing, and exact whenever s·1e9 is an integer that
// float64 represents exactly — whole-second values up to ~9×10⁶ s
// included, which is what the cross-engine byte-identity tests rely on.
func FromSeconds(s float64) (Tick, error) {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		//lint:ignore hotalloc conversion rejection path: callers abort the run on error
		return 0, fmt.Errorf("%w: %v", ErrNotFinite, s)
	}
	f := math.Round(s * 1e9)
	if f >= two63 || f <= -two63 {
		//lint:ignore hotalloc conversion rejection path: callers abort the run on error
		return 0, fmt.Errorf("%w: %v s", ErrOverflow, s)
	}
	return Tick(f), nil
}

// Seconds converts back to float64 seconds. Both steps (int64→float64,
// division by 1e9) are correctly rounded, so Seconds is monotone and
// exact whenever |t| < 2^53.
func (t Tick) Seconds() float64 {
	return float64(t) / 1e9
}

// SatAdd returns a+b clamped at Max instead of wrapping. It requires
// b ≥ 0 (the simulator only ever adds non-negative durations to
// non-negative instants); saturation is deterministic, so a schedule
// that saturates still merges bit-identically across shard layouts.
func SatAdd(a, b Tick) Tick {
	if s := a + b; s >= a {
		return s
	}
	return Max
}
