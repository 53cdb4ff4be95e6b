package tick

import (
	"errors"
	"math"
	"testing"
)

func TestFromSecondsExact(t *testing.T) {
	cases := []struct {
		s    float64
		want Tick
	}{
		{0, 0},
		{1, 1_000_000_000},
		{1.5, 1_500_000_000},
		{5, 5_000_000_000},
		{1e-9, 1},
		{0.5e-9, 1}, // half rounds away from zero
		{0.4e-9, 0}, // below half a tick
		{-1, -1_000_000_000},
		{-0.5e-9, -1},
		{9.2e9, 9_200_000_000_000_000_000}, // near the top of the range
	}
	for _, c := range cases {
		got, err := FromSeconds(c.s)
		if err != nil {
			t.Fatalf("FromSeconds(%v): %v", c.s, err)
		}
		if got != c.want {
			t.Errorf("FromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestFromSecondsRejects(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromSeconds(s); !errors.Is(err, ErrNotFinite) {
			t.Errorf("FromSeconds(%v) err = %v, want ErrNotFinite", s, err)
		}
	}
	for _, s := range []float64{1e10, -1e10, 9.3e9, math.MaxFloat64, -math.MaxFloat64} {
		if _, err := FromSeconds(s); !errors.Is(err, ErrOverflow) {
			t.Errorf("FromSeconds(%v) err = %v, want ErrOverflow", s, err)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := Tick(5_000_000_000).Seconds(); got != 5.0 {
		t.Errorf("Seconds(5e9 ticks) = %v, want 5", got)
	}
	if got := PerSecond.Seconds(); got != 1.0 {
		t.Errorf("PerSecond.Seconds() = %v, want 1", got)
	}
	if got := Tick(-1).Seconds(); got != -1e-9 {
		t.Errorf("Seconds(-1 tick) = %v, want -1e-9", got)
	}
}

func TestSatAdd(t *testing.T) {
	if got := SatAdd(3, 4); got != 7 {
		t.Errorf("SatAdd(3,4) = %d", got)
	}
	if got := SatAdd(Max, 1); got != Max {
		t.Errorf("SatAdd(Max,1) = %d, want Max", got)
	}
	if got := SatAdd(Max-5, 10); got != Max {
		t.Errorf("SatAdd(Max-5,10) = %d, want Max", got)
	}
	if got := SatAdd(Max-5, 5); got != Max {
		t.Errorf("SatAdd(Max-5,5) = %d, want Max", got)
	}
}

func TestMonotoneSample(t *testing.T) {
	// A sorted sample across magnitudes must convert to a
	// non-decreasing tick sequence.
	sample := []float64{-9e9, -1, -1e-9, -1e-10, 0, 1e-10, 0.5e-9, 1e-9,
		0.1, 0.3, 1, 1.0000000001, 2, 1e3, 1e6, 9e9}
	prev := Tick(math.MinInt64)
	for _, s := range sample {
		got, err := FromSeconds(s)
		if err != nil {
			t.Fatalf("FromSeconds(%v): %v", s, err)
		}
		if got < prev {
			t.Errorf("FromSeconds(%v) = %d < previous %d: not monotone", s, got, prev)
		}
		prev = got
	}
}

// roundTripBound is the declared round-trip epsilon: half a tick of
// quantization plus a few ulps from the two scalings.
func roundTripBound(s float64) float64 {
	return 0.5e-9 + math.Abs(s)*1e-12
}

// checkOne classifies one float64 through FromSeconds and verifies the
// declared contract for its class. It returns the tick and whether the
// value converted.
func checkOne(t *testing.T, s float64) (Tick, bool) {
	t.Helper()
	tk, err := FromSeconds(s)
	switch {
	case math.IsNaN(s) || math.IsInf(s, 0):
		if !errors.Is(err, ErrNotFinite) {
			t.Fatalf("FromSeconds(%v) err = %v, want ErrNotFinite", s, err)
		}
		return 0, false
	case math.Abs(s) >= 9.3e9:
		// Far past the range limit: must be rejected. (Values between
		// ~9.223e9 and 9.3e9 are near the boundary and may land either
		// side of it after rounding; both outcomes honor the contract.)
		if !errors.Is(err, ErrOverflow) {
			t.Fatalf("FromSeconds(%v) err = %v, want ErrOverflow", s, err)
		}
		return 0, false
	case err != nil:
		if !errors.Is(err, ErrOverflow) {
			t.Fatalf("FromSeconds(%v): unexpected error %v", s, err)
		}
		return 0, false
	}
	back := tk.Seconds()
	if diff := math.Abs(back - s); diff > roundTripBound(s) {
		t.Fatalf("round trip %v -> %d ticks -> %v drifts %v > %v",
			s, tk, back, diff, roundTripBound(s))
	}
	return tk, true
}

// FuzzTimeConv fuzzes the fixed-point conversion contract: NaN/Inf and
// overflow rejected, float64↔tick round trips within the declared
// epsilon, and conversion preserves comparison order (ticks never
// contradict the float order — a strict float < maps to tick ≤, and a
// strict tick < implies the floats were strictly ordered too).
func FuzzTimeConv(f *testing.F) {
	f.Add(0.0, 1e-9)
	f.Add(1.5, 1.5)
	f.Add(0.1, 0.3)
	f.Add(-1.0, 1.0)
	f.Add(9.2e9, 1e10)
	f.Add(1e-18, 2e-18)
	f.Add(math.NaN(), math.Inf(1))
	f.Add(math.MaxFloat64, -math.MaxFloat64)
	f.Fuzz(func(t *testing.T, a, b float64) {
		ta, okA := checkOne(t, a)
		tb, okB := checkOne(t, b)
		if !okA || !okB {
			return
		}
		if a < b && ta > tb {
			t.Fatalf("order broken: %v < %v but %d > %d ticks", a, b, ta, tb)
		}
		if ta < tb && a >= b {
			t.Fatalf("order invented: %d < %d ticks but %v >= %v", ta, tb, a, b)
		}
	})
}
