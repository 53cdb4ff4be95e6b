package task

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendersMatchTheEncoder: the three append helpers print what
// encoding/json marshals, and refuse exactly what they leave to it.
func TestAppendersMatchTheEncoder(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 0.1, 100, 123456789.125, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 5e-324,
		1e20, 999999999999999868928, 1e21, 1.5e21, 1e100, 1.2345e-100, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := AppendFloat([]byte("x"), f); !ok || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %q, %v; the encoder prints %q", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want it refused", f, got, ok)
		}
	}

	for _, s := range []string{"", "LPT-NoChoice", "ls-group:4", "a b~\x7f", "bounds"} {
		want, _ := json.Marshal(s)
		if got, ok := AppendString(nil, s); !ok || string(got) != string(want) {
			t.Errorf("AppendString(%q) = %q, %v; the encoder prints %q", s, got, ok, want)
		}
	}
	for _, s := range []string{`a"b`, `a\b`, "a<b", "a>b", "a&b", "tab\there", "nul\x00", "é", "a b", "\xff"} {
		if got, ok := AppendString([]byte("x"), s); ok || string(got) != "x" {
			t.Errorf("AppendString(%q) = %q, %v; want it left to the encoder", s, got, ok)
		}
	}

	for _, a := range [][]int{nil, {}, {0}, {3, -1, 1 << 40}} {
		want, _ := json.Marshal(a)
		if got := AppendInts(nil, a); string(got) != string(want) {
			t.Errorf("AppendInts(%v) = %q; the encoder prints %q", a, got, want)
		}
	}
}
