package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"

	"repro/internal/par"
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
	// compact marks a Response this package has itself checked and
	// compacted (SoleResult); the writer copies it.
	compact bool
}

// Failed is the Result of an item that was never served.
func Failed(idx int, msg string) Result { return Result{Index: idx, Error: msg} }

// Results is the /v1/batch answer of every tier, in input order.
type Results struct {
	Results []Result `json:"results"`
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

// Encode writes v to buf exactly as json.NewEncoder(buf).Encode(v)
// would. A Result or *Results is appended — the envelope's few tokens
// around each Response, which one pass checks and compacts instead of
// the encoder parsing and printing it again — unless that pass cannot
// render it the encoder's way (compactInto).
func Encode(buf *bytes.Buffer, v any) {
	switch v := v.(type) {
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
		if r.compact {
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
// opens U+2028 and U+2029.
func compactInto(buf *bytes.Buffer, src []byte) bool {
	for _, c := range [...]byte{'<', '>', '&', 0xE2} {
		if bytes.IndexByte(src, c) >= 0 {
			return false
		}
	}
	return json.Compact(buf, src) == nil
}

// What this package writes around the response of a one-item batch.
var soleHead, soleTail = []byte(`{"results":[{"index":0,"response":`), []byte("}]}\n")

// SoleResult unwraps the answer to a one-item sub-batch: cut at that
// head and tail with the response checked and compacted once, here, or
// unmarshalled where the body is spelt any other way. ok is false for
// a body that is not one result — in a 200 the upstream's fault, not
// the item's.
func SoleResult(body []byte) (r Result, ok bool) {
	if bytes.HasPrefix(body, soleHead) && bytes.HasSuffix(body, soleTail) {
		var buf bytes.Buffer
		if compactInto(&buf, body[len(soleHead):len(body)-len(soleTail)]) {
			return Result{Response: buf.Bytes(), compact: true}, true
		}
	}
	var sub Results
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Results) != 1 {
		return Result{}, false
	}
	return sub.Results[0], true
}
