package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/task"
)

// Result is the outcome of one work item in the batch answer or on a
// stream line of any tier: exactly one of Response and Error is set.
// Response is a /v1/schedule body as bytes — schedd's encoding, which
// the tiers above pass up untouched, so an item served through them is
// byte-identical to one served directly.
type Result struct {
	Index    int             `json:"index"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
	// checked marks a Response the encoder would copy as it stands — one
	// valid value, compact, nothing to escape: this process's own
	// encoding (Answer), or an upstream's that passed checkCompact on
	// receipt (received). The writer copies it.
	checked bool
	// body is the upstream reply Response may alias (Route.post): the
	// writer of the answer releases it once the answer is written
	// (Results.Release, Pump), and a result nobody writes leaves it to
	// the garbage collector.
	body Body
}

// Failed is the Result of an item that was never served.
func Failed(idx int, msg string) Result { return Result{Index: idx, Error: msg} }

// Results is the /v1/batch answer of every tier, in input order.
type Results struct {
	Results []Result `json:"results"`
}

// Release hands back the upstream replies the results alias, once the
// answer that copies them has been written. Call it once.
func (rs *Results) Release() {
	for i := range rs.Results {
		rs.Results[i].body.Release()
	}
}

// RunBatch fans n items out over workers and returns their results in
// input order; the fan-out stops dispatching once ctx is done, and an
// item it never reached is reported cancelled.
func RunBatch(ctx context.Context, n, workers int, run func(i int) Result) *Results {
	type slot struct {
		r    Result
		done bool
	}
	outs, ctxErr := par.MapCtx(ctx, n, workers, func(i int) slot { return slot{run(i), true} })
	if ctxErr == nil {
		ctxErr = context.DeadlineExceeded
	}
	res := &Results{Results: make([]Result, len(outs))}
	for i, out := range outs {
		if res.Results[i] = out.r; !out.done {
			res.Results[i] = Failed(i, "cancelled: "+ctxErr.Error())
		}
	}
	return res
}

// Appender is a value that prints its own JSON: AppendJSON appends
// exactly what encoding/json would marshal, or reports false (out is
// then scrap) and leaves the value to encoding/json.
type Appender interface {
	AppendJSON(dst []byte) (out []byte, ok bool)
}

// Encode writes v to buf exactly as json.NewEncoder(buf).Encode(v)
// would. An Appender prints itself; a Result or *Results is appended —
// the envelope's few tokens around each Response, which is copied where
// it is checked and otherwise checked and compacted in one pass — and
// what those cannot render the encoder's way is, like any other value,
// the encoder's.
func Encode(buf *bytes.Buffer, v any) {
	switch v := v.(type) {
	case Appender:
		if b, ok := v.AppendJSON(buf.AvailableBuffer()); ok {
			buf.Write(append(b, '\n'))
			return
		}
	case Result:
		v.appendLine(buf)
		return
	case *Results:
		ok := v.Results != nil // nil is the encoder's null
		buf.WriteString(`{"results":[`)
		for i := 0; ok && i < len(v.Results); i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			ok = v.Results[i].appendTo(buf)
		}
		if ok {
			buf.WriteString("]}\n")
			return
		}
	}
	buf.Reset()
	// Unmarshalable values are programming errors covered by tests; a
	// failed encode leaves buf empty, and the caller writes that.
	_ = json.NewEncoder(buf).Encode(v)
}

// Answer is the Result of item idx served with v: v encoded once, here,
// and marked checked — what Encode writes the encoder copies unchanged —
// so no writer or tier above prints or compacts it again. A v the
// encoder refuses is the item's error, in the encoder's words.
func Answer(idx int, v any) Result {
	buf := getBuf()
	defer putBuf(buf)
	if Encode(buf, v); buf.Len() == 0 {
		_, err := json.Marshal(v)
		return Failed(idx, err.Error())
	}
	return Result{Index: idx, Response: bytes.Clone(buf.Bytes()[:buf.Len()-1]), checked: true}
}

// appendLine is Encode of one Result, the stream pump's line writer.
func (r *Result) appendLine(buf *bytes.Buffer) {
	if r.appendTo(buf) {
		buf.WriteByte('\n')
		return
	}
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(r) // as Encode: a failed encode leaves buf empty
}

func (r *Result) appendTo(buf *bytes.Buffer) bool {
	buf.WriteString(`{"index":`)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(r.Index), 10))
	if len(r.Response) > 0 {
		buf.WriteString(`,"response":`)
		if r.checked {
			buf.Write(r.Response)
		} else if !compactInto(buf, r.Response) {
			return false
		}
	}
	if r.Error != "" {
		msg, _ := json.Marshal(r.Error) // a string always marshals; the escaping is the encoder's
		buf.WriteString(`,"error":`)
		buf.Write(msg)
	}
	buf.WriteByte('}')
	return true
}

// compactInto appends src to buf as the encoder renders a RawMessage —
// validated, insignificant whitespace dropped — in one pass. It
// reports false, buf untouched, where it cannot: src is not valid JSON
// (the encoder fails too, and the empty body follows as before), or
// holds a byte the encoder escapes: '<', '>', '&', or the 0xE2 that
// opens U+2028 and U+2029. It is the writer's path for a Response
// nobody checked: one built in code, or one received spelt unusually.
func compactInto(buf *bytes.Buffer, src []byte) bool {
	for _, c := range [...]byte{'<', '>', '&', 0xE2} {
		if bytes.IndexByte(src, c) >= 0 {
			return false
		}
	}
	return json.Compact(buf, src) == nil
}

// Which way an upstream's answer was taken on receipt.
var (
	mChecked     = obs.GetCounter("wire.answers_checked")
	mRecompacted = obs.GetCounter("wire.answers_recompacted")
)

// received is the Result carrying val, the value an upstream answered a
// 200 with, validated once, here: every tier checks every answer it
// forwards. Where checkCompact passes it the Response aliases val — a
// reply's pooled buffer, which the result then owns (Route.post) —
// marked checked. The rest encoding/json judges: valid JSON is carried
// unchecked, for the writer to compact; anything else is refused, the
// upstream's fault.
func received(val []byte) (r Result, ok bool) {
	if checkCompact(val) {
		mChecked.Inc()
		return Result{Response: val, checked: true}, true
	}
	if !json.Valid(val) {
		return Result{}, false
	}
	mRecompacted.Inc()
	return Result{Response: val}, true
}

// What this package writes around the response of a one-item batch.
var soleHead, soleTail = []byte(`{"results":[{"index":0,"response":`), []byte("}]}\n")

// SoleResult unwraps the answer to a one-item sub-batch: cut at that
// head and tail and the response received, or unmarshalled where the
// body is spelt any other way. ok is false for a body that is not one
// result — in a 200 the upstream's fault, not the item's.
func SoleResult(body []byte) (r Result, ok bool) {
	if bytes.HasPrefix(body, soleHead) && bytes.HasSuffix(body, soleTail) {
		if r, ok = received(body[len(soleHead) : len(body)-len(soleTail)]); ok {
			return r, true
		}
	}
	var sub Results
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Results) != 1 {
		return Result{}, false
	}
	mRecompacted.Inc()
	return sub.Results[0], true
}

// maxDepth bounds checkCompact's nesting, one bit of a word per open
// container; an answer nests four deep.
const maxDepth = 64

// checkCompact reports whether b is what the encoder copies unchanged
// as a RawMessage: exactly one JSON value, no insignificant whitespace,
// none of the bytes the encoder escapes ('<', '>', '&', the 0xE2 that
// opens U+2028 and U+2029). Only "true ⇒ json.Compact copies b as it
// stands" is relied on (FuzzCheckCompact); a wrong false costs the slow
// path, so it is stricter than the grammar where that is simpler: no
// escape in a string, no nesting past maxDepth. One pass, no recursion,
// no allocation, over the 3n numbers of an answer at each proxy tier.
//
//perf:hotpath
func checkCompact(b []byte) bool {
	var objects uint64 // bit k set: the container at depth k+1 is an object
	depth, i := 0, 0
	for {
		// A value starts at i; inside an object, its key first.
		if objects&1 != 0 {
			if i = stringEnd(b, i); i < 0 || i >= len(b) || b[i] != ':' {
				return false
			}
			i++
		}
		if i >= len(b) {
			return false
		}
		switch c := b[i]; {
		case c-'0' < 10 || c == '-':
			i, _ = task.NumberEnd(b, i)
		case c == '"':
			i = stringEnd(b, i)
		case c == '{' || c == '[':
			if depth == maxDepth {
				return false
			}
			objects = objects<<1 | uint64(c>>5&1) // '{' has the bit '[' lacks
			depth++
			if i++; i < len(b) && b[i] == c+2 { // '}' is '{'+2, ']' is '['+2
				break // empty: closed below
			}
			continue
		case c == 't' && bytes.HasPrefix(b[i:], litTrue), c == 'n' && bytes.HasPrefix(b[i:], litNull):
			i += 4
		case c == 'f' && bytes.HasPrefix(b[i:], litFalse):
			i += 5
		default:
			return false
		}
		if i < 0 {
			return false
		}
		// A value ended at i: close every container that ends here, then
		// a comma and the next value, or the end.
		for {
			if depth == 0 {
				return i == len(b)
			}
			if i >= len(b) {
				return false
			}
			c := b[i]
			if i++; c == ',' {
				break
			}
			if c != ']'+32*byte(objects&1) { // '}' is ']'+32
				return false
			}
			objects >>= 1
			depth--
		}
	}
}

var litTrue, litFalse, litNull = []byte("true"), []byte("false"), []byte("null")

// stringEnd returns the index past the string that opens at b[i], or -1
// for anything but plain bytes between two quotes: a control byte, a
// byte the encoder escapes, or a backslash.
func stringEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < ' ' || c == '\\' || c == '<' || c == '>' || c == '&' || c == 0xE2:
			return -1
		}
	}
	return -1
}
