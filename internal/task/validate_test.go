package task

import (
	"errors"
	"math"
	"testing"
)

func TestCheckMachines(t *testing.T) {
	if err := CheckMachines(1); err != nil {
		t.Fatalf("CheckMachines(1) = %v", err)
	}
	for _, m := range []int{0, -1, -100} {
		if err := CheckMachines(m); !errors.Is(err, ErrNoMachines) {
			t.Errorf("CheckMachines(%d) = %v, want ErrNoMachines", m, err)
		}
	}
}

func TestCheckAlpha(t *testing.T) {
	for _, a := range []float64{1, 1.5, 1e300} {
		if err := CheckAlpha(a); err != nil {
			t.Errorf("CheckAlpha(%v) = %v", a, err)
		}
	}
	for _, a := range []float64{0, 0.999, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckAlpha(a); !errors.Is(err, ErrBadAlpha) {
			t.Errorf("CheckAlpha(%v) = %v, want ErrBadAlpha", a, err)
		}
	}
}

// TestValidateOverflow covers the aggregate-overflow gaps: times that
// are individually finite but whose sum (or Equation-1 interval) is
// not representable must be rejected before they reach the solvers.
func TestValidateOverflow(t *testing.T) {
	huge := math.MaxFloat64 / 2

	t.Run("sum of estimates overflows", func(t *testing.T) {
		in := &Instance{M: 2, Alpha: 1, Tasks: []Task{
			{ID: 0, Estimate: huge, Actual: huge},
			{ID: 1, Estimate: huge, Actual: huge},
			{ID: 2, Estimate: huge, Actual: huge},
		}}
		if err := in.Validate(false); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Validate = %v, want ErrOverflow", err)
		}
	})

	t.Run("estimate times alpha overflows", func(t *testing.T) {
		in := &Instance{M: 2, Alpha: 4, Tasks: []Task{
			{ID: 0, Estimate: huge, Actual: huge},
		}}
		if err := in.Validate(false); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Validate = %v, want ErrOverflow", err)
		}
	})

	t.Run("sum of actuals overflows", func(t *testing.T) {
		// Estimates sum finitely, but a large alpha lets the actuals
		// (each within the Equation-1 interval) overflow in aggregate.
		e := math.MaxFloat64 / 16
		in := &Instance{M: 2, Alpha: 8, Tasks: []Task{
			{ID: 0, Estimate: e, Actual: e * 8},
			{ID: 1, Estimate: e, Actual: e * 8},
			{ID: 2, Estimate: e, Actual: e * 8},
		}}
		if err := in.Validate(false); err != nil {
			t.Fatalf("estimates alone should pass: %v", err)
		}
		if err := in.Validate(true); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Validate = %v, want ErrOverflow", err)
		}
	})

	t.Run("actual outside the tick range", func(t *testing.T) {
		// 2^63 ns is the first duration the simulator cannot express;
		// the float64 just below it is the last it can.
		const outOfRange = 9223372036.854775808
		for _, c := range []struct {
			actual float64
			ok     bool
		}{{math.Nextafter(outOfRange, 0), true}, {outOfRange, false}, {1e300, false}} {
			in := &Instance{M: 2, Alpha: 1, Tasks: []Task{
				{ID: 0, Estimate: 1, Actual: 1},
				{ID: 1, Estimate: c.actual, Actual: c.actual},
			}}
			if err := in.Validate(false); err != nil {
				t.Fatalf("actual %g: estimates alone should pass: %v", c.actual, err)
			}
			if err := in.Validate(true); c.ok != (err == nil) || (!c.ok && !errors.Is(err, ErrTickRange)) {
				t.Fatalf("actual %g: Validate = %v, want ok=%v / ErrTickRange", c.actual, err, c.ok)
			}
		}
	})

	t.Run("ordinary instance still accepted", func(t *testing.T) {
		in, err := New(3, 1.5, []float64{1, 2, 3}, []float64{1.2, 2.5, 2.1})
		if err != nil {
			t.Fatalf("New = %v", err)
		}
		if err := in.Validate(true); err != nil {
			t.Fatalf("Validate = %v", err)
		}
	})
}
