package task

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
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

// TestFloatMatchesParseFloat holds Scanner.Float to strconv.ParseFloat
// bit for bit on random tokens shaped like the codec's traffic and its
// edges: 1 to 20 digits with the point anywhere, runs of leading
// zeros, and the shortest spellings of random doubles, which is what
// every writer prints.
func TestFloatMatchesParseFloat(t *testing.T) {
	src := rand.New(rand.NewPCG(46, 1))
	var buf []byte
	for k := 0; k < 200_000; k++ {
		buf = buf[:0]
		switch k % 3 {
		case 0:
			f := math.Float64frombits(src.Uint64() >> 2) // finite, 1e-300..1e77
			if src.IntN(2) == 0 {
				f = src.Float64() * math.Pow(10, float64(src.IntN(24)-12))
			}
			buf, _ = AppendFloat(buf, f)
		default:
			digits := make([]byte, 1+src.IntN(20))
			for i := range digits {
				digits[i] = byte('0' + src.IntN(10))
			}
			p := src.IntN(len(digits) + 1) // the point goes before digits[p]
			whole := strings.TrimLeft(string(digits[:p]), "0")
			if whole == "" {
				whole = "0"
			}
			buf = append(buf, whole...)
			if p < len(digits) {
				buf = append(buf, '.')
				buf = append(buf, strings.Repeat("0", src.IntN(4)*src.IntN(2))...)
				buf = append(buf, digits[p:]...)
			}
		}
		if src.IntN(4) == 0 {
			buf = append([]byte{'-'}, buf...)
		}
		want, err := strconv.ParseFloat(string(buf), 64)
		s := Scanner{Data: buf}
		got, ok := s.Float()
		if !ok || err != nil || math.Float64bits(got) != math.Float64bits(want) || !s.End() {
			t.Fatalf("Float(%q) = %v, %v; ParseFloat reads %v, %v", buf, got, ok, want, err)
		}
	}
}
