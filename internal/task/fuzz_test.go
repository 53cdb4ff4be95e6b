package task

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"testing"
)

// FuzzInstanceJSON checks the JSON decoder never panics and that
// accepted instances survive an encode/decode round trip.
func FuzzInstanceJSON(f *testing.F) {
	f.Add([]byte(`{"m":2,"alpha":1.5,"estimates":[1,2]}`))
	f.Add([]byte(`{"m":2,"alpha":1.5,"estimates":[1],"actuals":[1.2],"sizes":[3]}`))
	f.Add([]byte(`{"m":0}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"m":1,"alpha":1,"estimates":[1],"actuals":[1,2]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Instance
		if err := in.UnmarshalJSON(data); err != nil {
			return
		}
		if err := in.Validate(false); err != nil {
			return // decoded but invalid: callers validate, fine
		}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			t.Fatalf("Write failed on valid instance: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.N() != in.N() || again.M != in.M || again.Alpha != in.Alpha {
			t.Fatalf("round trip changed shape")
		}
	})
}

// numberGrammar is JSON's number grammar written out a second time, as
// a regular expression: the oracle FuzzNumber holds scanNumber to.
var numberGrammar = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// FuzzNumber holds Scanner.Float to JSON's number grammar and to
// strconv.ParseFloat, bit for bit, on arbitrary bytes. The grammar's
// longest match is the token unless the byte after it starts a part the
// grammar refuses — a digit after a lone leading zero, a '.' with no
// fraction digits, an 'e' with no exponent digits — where NumberEnd
// finds none. Float takes exactly the tokens ParseFloat converts, bar
// those past 32 bytes, and stops after the token.
func FuzzNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "0.000", "0.0000000000000000000000", "0.0000000000000000000000000000000", "1", "-1", "1.5", "0.1", "123456789.125",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
		"0.9007199254740993", "900719925474099.3", "-9007199254740993.5",
		"1234567890123456789", "0.1234567890123456789", "9999999999999999999", "9.999999999999999999",
		"12345678901234567890", "0.12345678901234567891", "18446744073709551616",
		"4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "0.30000000000000004",
		"1.00000000000000011102230246251565404236316680908203125",
		"0.0000000000000000001", "0.00000000000000000012", "0.0000000000000000000001", "0.00000000000000000000001",
		"1e5", "1E-5", "-1.5e+300", "1e400", "-1e-400", "2.5e-324", "1.7976931348623157e308",
		"0.123456789012345678901234567890123", "123456789012345678901234567890123", "1234567890123456789012345678901.5",
		"01", "-", "-x", "1.", ".5", "1.e5", "1e", "1e+", "+1", " 1.5", "1.5,", "1.5.3", "0.5e5.", "1e5.", "05", "-0.5e-0",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := Scanner{Data: data}
		s.Peek()
		start := s.Pos
		want := -1
		if m := numberGrammar.FindSubmatchIndex(data[start:]); m != nil {
			want = start + m[1]
			fraction, exponent := m[4] >= 0, m[6] >= 0
			if want < len(data) {
				switch c := data[want]; {
				case c-'0' < 10, c == '.' && !fraction && !exponent, (c == 'e' || c == 'E') && !exponent:
					want = -1
				}
			}
		}
		end, integer := NumberEnd(data, start)
		if end != want {
			t.Fatalf("NumberEnd(%q) = %d, the grammar ends the token at %d", data[start:], end, want)
		}
		if end >= 0 && integer != !bytes.ContainsAny(data[start:end], ".eE") {
			t.Fatalf("NumberEnd(%q) says integer %v", data[start:end], integer)
		}
		v, ok := s.Float()
		if end < 0 {
			if ok {
				t.Fatalf("Float read %v from %q, which holds no number", v, data)
			}
			return
		}
		tok := string(data[start:end])
		pv, err := strconv.ParseFloat(tok, 64)
		if wantOK := err == nil && len(tok) <= 32; ok != wantOK {
			t.Fatalf("Float(%q) ok = %v; ParseFloat's error %v, %d bytes", tok, ok, err, len(tok))
		}
		if !ok {
			return
		}
		if math.Float64bits(v) != math.Float64bits(pv) {
			t.Fatalf("Float(%q) = %v (%#x), ParseFloat reads %v (%#x)", tok, v, math.Float64bits(v), pv, math.Float64bits(pv))
		}
		if s.Pos != end {
			t.Fatalf("Float(%q) stopped at %d, the token ends at %d", tok, s.Pos, end)
		}
	})
}
