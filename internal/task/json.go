package task

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// instanceJSON is the wire representation of an Instance. Using
// parallel arrays keeps large instances compact and diff-friendly.
type instanceJSON struct {
	M         int       `json:"m"`
	Alpha     float64   `json:"alpha"`
	Estimates []float64 `json:"estimates"`
	Actuals   []float64 `json:"actuals,omitempty"`
	Sizes     []float64 `json:"sizes,omitempty"`
}

// Scanner is a cursor over a JSON text that reads the canonical
// spelling of a work item without reflection: exact lower-case keys,
// each at most once, plain ASCII strings, numbers in JSON's grammar, no
// null. It is a second reader of instanceJSON's grammar, not a second
// definition: every method reports false — bails — on anything else,
// malformed or merely unusual, and the caller hands the same bytes to
// encoding/json, which alone decides what is accepted and words every
// error. A number costs one pass over its bytes, which checks the
// grammar and gathers the digits the value is converted from, to the
// float64 the decoder would produce, bit for bit (Float).
// Instance.UnmarshalJSON tries it first; internal/wire reads the item
// object and the batch envelope around it with the same methods.
type Scanner struct {
	Data []byte
	Pos  int
}

// Peek skips whitespace and returns the byte at Pos, 0 at the end.
func (s *Scanner) Peek() byte {
	for ; s.Pos < len(s.Data); s.Pos++ {
		if c := s.Data[s.Pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// Byte consumes c (never 0) if it is the next byte past whitespace.
func (s *Scanner) Byte(c byte) bool {
	if s.Peek() != c {
		return false
	}
	s.Pos++
	return true
}

// End reports whether only whitespace is left.
func (s *Scanner) End() bool { return s.Peek() == 0 && s.Pos == len(s.Data) }

// String consumes a string free of escapes, control bytes and bytes
// past ASCII — what the decoder would unquote, check or reject — and
// returns the bytes between its quotes.
func (s *Scanner) String() ([]byte, bool) {
	if !s.Byte('"') {
		return nil, false
	}
	for i := s.Pos; i < len(s.Data); i++ {
		switch c := s.Data[i]; {
		case c == '"':
			str := s.Data[s.Pos:i]
			s.Pos = i + 1
			return str, true
		case c < ' ' || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Object consumes an object whose keys are among keys, each at most
// once, calling member(k) to consume the value of keys[k]; seen has
// bit k set for every key met.
func (s *Scanner) Object(keys []string, member func(k int) bool) (seen uint, ok bool) {
	if !s.Byte('{') {
		return 0, false
	}
	if s.Byte('}') {
		return 0, true
	}
	for {
		key, ok := s.String()
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if !ok || k == len(keys) || seen&(1<<k) != 0 || !s.Byte(':') || !member(k) {
			return 0, false
		}
		seen |= 1 << k
		if s.Byte('}') {
			return seen, true
		}
		if !s.Byte(',') {
			return 0, false
		}
	}
}

// NumberEnd returns the index past the token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that starts at d[i],
// and whether it has neither fraction nor exponent; -1 where none does.
// It is scanNumber without the digits: the codec's readers, the Scanner
// here and internal/wire's check of an answer, share that one statement
// of the grammar.
func NumberEnd(d []byte, i int) (end int, integer bool) {
	end, integer, _, _, _ = scanNumber(d, i, false)
	return end, integer
}

// scanNumber reads the token of JSON's number grammar that starts at
// d[i] in one pass: the grammar's one statement (NumberEnd) and, with
// gather set, the first half of a float's conversion, each run of
// digits gathered as the pass leaves it. Where exact is set the token's
// magnitude is w·10^q: no exponent part and at most 19 significant
// digits (10^19 < 2^64), leading zeros dropped; q ≤ 0. A check that
// wants the end alone leaves gather unset and pays for no
// multiplication.
func scanNumber(d []byte, i int, gather bool) (end int, integer bool, w uint64, q int, exact bool) {
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := digits(d, i)
	if j == i || d[i] == '0' && j > i+1 {
		return -1, false, 0, 0, false // no digit, or a leading zero not alone
	}
	nd := 0 // significant digits; past 19, w has wrapped
	if gather && d[i] != '0' {
		w, nd = appendDigits(0, d[i:j]), j-i
	}
	i, integer = j, true
	if i < len(d) && d[i] == '.' {
		if j = digits(d, i+1); j == i+1 {
			return -1, false, 0, 0, false
		}
		if gather {
			k := i + 1
			for nd == 0 && k < j && d[k] == '0' {
				k++ // a fraction's leading zeros are no significant digits
			}
			w, nd, q = appendDigits(w, d[k:j]), nd+j-k, i+1-j
		}
		i, integer = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if j = i + 1; j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if i = digits(d, j); i == j {
			return -1, false, 0, 0, false
		}
		return i, false, w, q, false
	}
	return i, integer, w, q, nd <= 19
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && d[i]-'0' < 10 {
		i++
	}
	return i
}

// appendDigits returns w·10^len(run) plus the decimal digits of run.
func appendDigits(w uint64, run []byte) uint64 {
	for _, c := range run {
		w = w*10 + uint64(c-'0')
	}
	return w
}

// pow10 holds the powers of ten a float64 stores exactly, 10^0..10^22.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow10u holds 10^0..10^19, the powers of ten a uint64 holds.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalFloat returns w·10^q (q ≤ 0) with one correct rounding, the
// float64 strconv.ParseFloat returns for it, or false where it leaves
// that to ParseFloat: digits too many or too small for the two paths
// below.
func decimalFloat(w uint64, q int) (float64, bool) {
	switch {
	case w == 0:
		return 0, true
	case w <= 1<<53 && q >= -22:
		// Clinger's fast path: w and 10^-q are exact doubles, so the
		// quotient is rounded once.
		return float64(w) / pow10[-q], true
	case q < 0 && q >= -19:
		return divPow10(w, -q), true
	}
	return 0, false
}

// divPow10 returns w/10^k rounded to nearest, ties to even, for w > 0
// and 1 ≤ k ≤ 19: w·2^s divided by 10^k in 128 bits, s set so the
// quotient has 63 or 64 bits, is cut to 53 with the rest and the
// remainder deciding the rounding. The result is far inside float64's
// normal range (10^-19 ≤ w/10^k < 10^19), so Ldexp scales it exactly.
func divPow10(w uint64, k int) float64 {
	d := pow10u[k]
	s := 63 - bits.Len64(w) + bits.Len64(d) // 3 ≤ s ≤ 126
	var hi, lo uint64
	if s >= 64 {
		hi = w << (s - 64)
	} else {
		hi, lo = w>>(64-s), w<<s
	}
	quo, rem := bits.Div64(hi, lo, d) // hi < d: the quotient is below 2^64
	shift := bits.Len64(quo) - 53
	mant, rest, half := quo>>shift, quo&(1<<shift-1), uint64(1)<<(shift-1)
	if rest > half || rest == half && (rem != 0 || mant&1 == 1) {
		mant++ // 2^53 at most, still exact
	}
	return math.Ldexp(float64(mant), shift-s)
}

// Int consumes an integer as the decoder reads an int field: a
// fraction, an exponent or a value out of range is its error to word.
// A token past 32 bytes bails (Go prints a float64 in 24): strconv
// takes a string, and a conversion that does not escape stays on the
// stack up to that size.
func (s *Scanner) Int() (int, bool) {
	s.Peek()
	end, integer := NumberEnd(s.Data, s.Pos)
	if !integer || end-s.Pos > 32 {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s.Data[s.Pos:end]), 10, strconv.IntSize)
	s.Pos = end
	return int(v), err == nil
}

// Float consumes a number as the decoder converts it, bit for bit. The
// token is scanned once, and most are converted from the digits that
// scan gathered (decimalFloat); one with an exponent part or more than
// 19 significant digits, or too small a scale, goes to
// strconv.ParseFloat, the decoder's own conversion. Like Int it bails
// past 32 bytes, and on a number out of float64's range, the decoder's
// error.
func (s *Scanner) Float() (float64, bool) {
	s.Peek()
	end, _, w, q, exact := scanNumber(s.Data, s.Pos, true)
	if end < 0 || end-s.Pos > 32 {
		return 0, false
	}
	v, ok := 0.0, false
	if exact {
		v, ok = decimalFloat(w, q)
	}
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(s.Data[s.Pos:end]), 64); err != nil {
			return 0, false
		}
	} else if s.Data[s.Pos] == '-' {
		v = -v
	}
	s.Pos = end
	return v, true
}

// floats reads the len(tasks) numbers of an array, its '[' consumed,
// into field 0, 1 or 2 of tasks — estimate, actual, size — through the
// closing ']'. This loop is a request's decode: 4,000 numbers at
// n=2,000, at each of three tiers.
//
//perf:hotpath
func (s *Scanner) floats(tasks []Task, field int) bool {
	for k := range tasks {
		if k > 0 && !s.Byte(',') {
			return false
		}
		v, ok := s.Float()
		if !ok {
			return false
		}
		switch t := &tasks[k]; field {
		case 0:
			t.Estimate = v
		case 1:
			t.Actual = v
		default:
			t.Size = v
		}
	}
	return s.Byte(']')
}

// array reads one of the instance's parallel arrays. The first met
// sizes the task slice, in one allocation, from the commas before the
// first ']' (a number array holds no other; n numbers and their commas
// take 2n-1 bytes, so commas alone buy no allocation); a later array of
// another length, like an empty one, is the decoder's to word.
func (s *Scanner) array(tasks *[]Task, field int) bool {
	if !s.Byte('[') {
		return false
	}
	end := bytes.IndexByte(s.Data[s.Pos:], ']')
	n := bytes.Count(s.Data[s.Pos:s.Pos+max(end, 0)], []byte{','}) + 1
	if end < 2*n-1 {
		return false
	}
	if *tasks == nil {
		*tasks = make([]Task, n)
		for i := range *tasks {
			(*tasks)[i].ID = i
		}
	}
	return len(*tasks) == n && s.floats(*tasks, field)
}

var instanceKeys = []string{"m", "alpha", "estimates", "actuals", "sizes"}

// Instance consumes one instance object: what UnmarshalJSON's
// reflective path builds from the same bytes, bit for bit (FuzzScanItem
// in internal/wire holds the two together).
func (s *Scanner) Instance() (*Instance, bool) {
	var in Instance
	seen, ok := s.Object(instanceKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			in.M, ok = s.Int()
		case 1:
			in.Alpha, ok = s.Float()
		default:
			ok = s.array(&in.Tasks, k-2)
		}
		return ok
	})
	if !ok || seen&(1<<2) == 0 {
		return nil, false // no estimates
	}
	if seen&(1<<3) == 0 {
		for i := range in.Tasks {
			in.Tasks[i].Actual = in.Tasks[i].Estimate
		}
	}
	return &in, true
}

// AppendFloat appends f as encoding/json prints a float64: shortest
// round-trip digits, plain below 1e21 and from 1e-6, otherwise with an
// exponent whose padding zero is trimmed (1e-07 is 1e-7). It is the
// writers' one statement of that rule — sched, placement and serve
// append their answers through it — and reports false, dst untouched,
// for the NaN and infinities the encoder refuses.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	abs := math.Abs(f)
	if abs > math.MaxFloat64 || f != f {
		return dst, false
	}
	if abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64), true
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// AppendString appends s quoted, for a string the encoder would copy
// between the quotes byte for byte: ASCII from the space up without
// '"', '\' or the '<', '>', '&' it escapes. false, dst untouched, for any other.
func AppendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendInts appends a as the encoder prints a []int: null when nil.
func AppendInts(dst []byte, a []int) []byte {
	if a == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// MarshalJSON implements json.Marshaler.
func (in *Instance) MarshalJSON() ([]byte, error) {
	w := instanceJSON{
		M:         in.M,
		Alpha:     in.Alpha,
		Estimates: in.Estimates(),
	}
	hasActuals, hasSizes := false, false
	for _, t := range in.Tasks {
		if t.Actual != 0 {
			hasActuals = true
		}
		if t.Size != 0 {
			hasSizes = true
		}
	}
	if hasActuals {
		w.Actuals = in.Actuals()
	}
	if hasSizes {
		w.Sizes = in.Sizes()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. Actuals default to the
// estimates when absent; sizes default to zero. The canonical spelling
// goes through the Scanner, everything else and every error through
// encoding/json, strictly: a key instanceJSON lacks is an error, as one
// level up in the serving codec (a misspelt "actuals" used to be
// dropped and the instance scheduled with perfect estimates).
func (in *Instance) UnmarshalJSON(data []byte) error {
	s := Scanner{Data: data}
	if got, ok := s.Instance(); ok && s.End() {
		*in = *got
		return nil
	}
	var w instanceJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("task: trailing data after instance")
	}
	if w.Actuals != nil && len(w.Actuals) != len(w.Estimates) {
		return fmt.Errorf("task: %d actuals for %d estimates", len(w.Actuals), len(w.Estimates))
	}
	if w.Sizes != nil && len(w.Sizes) != len(w.Estimates) {
		return fmt.Errorf("task: %d sizes for %d estimates", len(w.Sizes), len(w.Estimates))
	}
	in.M = w.M
	in.Alpha = w.Alpha
	in.Tasks = make([]Task, len(w.Estimates))
	for i, e := range w.Estimates {
		t := Task{ID: i, Estimate: e, Actual: e}
		if w.Actuals != nil {
			t.Actual = w.Actuals[i]
		}
		if w.Sizes != nil {
			t.Size = w.Sizes[i]
		}
		in.Tasks[i] = t
	}
	return nil
}

// Write encodes the instance as JSON to w.
func (in *Instance) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(in)
}

// Read decodes a JSON instance from r and validates its structure
// (actuals are validated only if any differ from the estimates).
func Read(r io.Reader) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	if err := in.Validate(false); err != nil {
		return nil, err
	}
	return &in, nil
}
