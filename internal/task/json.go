package task

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
// error. Instance.UnmarshalJSON tries it first; internal/wire reads the
// item object and the batch envelope around it with the same methods.
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

// number consumes a number token (NumberEnd) and reports whether it
// has neither fraction nor exponent; nil for anything else, and for a
// token past 32 bytes (Go prints a float64 in 24): strconv takes a
// string, and a conversion that does not escape stays on the stack up
// to that size.
func (s *Scanner) number() (tok []byte, integer bool) {
	s.Peek()
	end, integer := NumberEnd(s.Data, s.Pos)
	if end < 0 || end-s.Pos > 32 {
		return nil, false
	}
	tok, s.Pos = s.Data[s.Pos:end], end
	return tok, integer
}

// NumberEnd returns the index past the token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that starts at d[i],
// and whether it has neither fraction nor exponent; -1 where none does.
// It is the one statement of that grammar for the codec's readers: the
// Scanner here, and internal/wire's check of an answer.
func NumberEnd(d []byte, i int) (end int, integer bool) {
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := digits(d, i)
	if j == i || d[i] == '0' && j > i+1 {
		return -1, false
	}
	i, integer = j, true
	if i < len(d) && d[i] == '.' {
		if j = digits(d, i+1); j == i+1 {
			return -1, false
		}
		i, integer = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if j = i + 1; j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if i, integer = digits(d, j), false; i == j {
			return -1, false
		}
	}
	return i, integer
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && d[i]-'0' < 10 {
		i++
	}
	return i
}

// Int consumes an integer as the decoder reads an int field: a
// fraction, an exponent or a value out of range is its error to word.
func (s *Scanner) Int() (int, bool) {
	tok, integer := s.number()
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), integer && err == nil
}

// Float consumes a number with the decoder's own conversion; one out
// of float64's range is the decoder's error.
func (s *Scanner) Float() (float64, bool) {
	tok, _ := s.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
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
