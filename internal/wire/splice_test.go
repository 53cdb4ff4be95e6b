package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// encoderBytes is what the envelope writer replaced: json.Encoder's
// rendering of v, empty where it fails.
func encoderBytes(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v) // a failed encode writes nothing, which is the expectation then
	return buf.Bytes()
}

// checkEncode holds Encode to json.Encoder on one batch answer and on
// each of its results as a stream line.
func checkEncode(t *testing.T, results []Result) {
	t.Helper()
	var buf bytes.Buffer
	batch := &Results{Results: results}
	if Encode(&buf, batch); !bytes.Equal(buf.Bytes(), encoderBytes(batch)) {
		t.Errorf("batch: Encode wrote %q, json.Encoder %q", buf.Bytes(), encoderBytes(batch))
	}
	for _, r := range results {
		buf.Reset()
		if Encode(&buf, r); !bytes.Equal(buf.Bytes(), encoderBytes(r)) {
			t.Errorf("line: Encode wrote %q, json.Encoder %q", buf.Bytes(), encoderBytes(r))
		}
	}
}

var encodeCases = map[string][]Result{
	"one response":      {{Index: 0, Response: json.RawMessage(`{"makespan":1.5,"n":3}`)}},
	"error only":        {{Index: 7, Error: "instance has 9 tasks, limit 4"}},
	"mixed":             {{Index: 0, Response: json.RawMessage(`{"a":[1,2,{"b":null}]}`)}, {Index: 1, Error: "cancelled: context deadline exceeded"}, {Index: 2, Response: json.RawMessage(`7`)}},
	"whitespace":        {{Index: 1, Response: json.RawMessage(" {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"s\" : \"two  spaces\" }\n")}},
	"html in response":  {{Index: 0, Response: json.RawMessage(`{"algorithm":"<b>&amp;</b>"}`)}},
	"u2028 in response": {{Index: 0, Response: json.RawMessage("{\"s\":\"a\u2028b\u2029c\"}")}},
	"other e2 rune":     {{Index: 0, Response: json.RawMessage(`{"s":"a→b"}`)}},
	"html in error":     {{Index: 3, Error: "unknown algorithm \"<x>& \""}},
	"invalid utf8":      {{Index: 3, Error: "bad \xff byte"}},
	"both set":          {{Index: 0, Response: json.RawMessage(`1`), Error: "and an error"}},
	"neither set":       {{Index: 4}},
	"null response":     {{Index: 0, Response: json.RawMessage(`null`)}},
	"negative index":    {{Index: -12, Response: json.RawMessage(`{}`)}},
	"empty batch":       {},
	"nil batch":         nil,
	"invalid response":  {{Index: 0, Response: json.RawMessage(`{"a":1`)}, {Index: 1, Response: json.RawMessage(`{}`)}},
	"trailing value":    {{Index: 0, Response: json.RawMessage(`{} {}`)}},
	"checked already":   {{Index: 0, Response: json.RawMessage(`{"a":1}`), checked: true}},
}

// TestEncodeEqualsJSONEncoder: the spliced envelope is json.Encoder's
// byte for byte — compaction, the escapes it hands back to the encoder,
// error strings — and an invalid response leaves the same empty body.
func TestEncodeEqualsJSONEncoder(t *testing.T) {
	for name, results := range encodeCases {
		t.Run(name, func(t *testing.T) { checkEncode(t, results) })
	}
	// Other values go to the encoder untouched.
	var buf bytes.Buffer
	if Encode(&buf, ErrorResponse{Error: "x<y"}); !bytes.Equal(buf.Bytes(), encoderBytes(ErrorResponse{Error: "x<y"})) {
		t.Errorf("error envelope: %q", buf.Bytes())
	}
}

// FuzzEncodeResults holds Encode to json.Encoder on arbitrary response
// bytes and error strings.
func FuzzEncodeResults(f *testing.F) {
	for _, results := range encodeCases {
		for _, r := range results {
			f.Add(r.Index, []byte(r.Response), r.Error)
		}
	}
	f.Fuzz(func(t *testing.T, idx int, response []byte, msg string) {
		checkEncode(t, []Result{{Index: idx, Response: response, Error: msg}, {Index: idx + 1, Response: response}})
	})
}

// A real answer (schedd's, to an 8-task item) and the table of
// spellings around the checker's every decision: TestCheckCompact's
// cases and FuzzCheckCompact's seeds.
const realAnswer = `{"algorithm":"LPT-NoRestriction","n":8,"m":4,"alpha":1.5,"makespan":9,"placement":{"m":4,"sets":[[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3]]},"schedule":{"m":4,"machines":[1,3,0,3,2,3,2,1],"starts":[8,5,0,8,0,0,7,0],"ends":[9,8,9.25,9,7,5e-7,9,1e+21]},"optimum":{"lower":9,"upper":9,"exact":true,"method":"bounds"},"ratio_lower":1,"ratio_upper":1,"guarantee":1.75,"bound_ok":true}`

var compactCases = map[string]bool{
	realAnswer: true,
	// One value of every kind, nested and empty containers.
	`0`: true, `-0`: true, `7`: true, `-12.5`: true, `1e9`: true, `1E+9`: true, `1.5e-7`: true, `0.0`: true,
	`true`: true, `false`: true, `null`: true, `""`: true, `"a b"`: true, `{}`: true, `[]`: true,
	`[[]]`: true, `[{}]`: true, `{"a":{}}`: true, `{"a":[],"b":[[1],{"c":null}]}`: true, `[1,"x",true,null,{"k":[0]}]`: true,
	"\"caf\u00c3\u00a9 \xc3\xa9 \xf0\x9f\x99\x82 \xff\"": true, `{"":0}`: true,
	// Numbers outside the grammar.
	`01`: false, `-`: false, `+1`: false, `1.`: false, `.5`: false, `1e`: false, `1e+`: false, `--1`: false, `0x10`: false, `1.e5`: false, `NaN`: false,
	// Strings: control bytes, the bytes the encoder escapes, and any
	// escape at all, valid ones too — stricter than the grammar.
	`"\" \\ \/ \b\f\n\r\t \u00e9 \uD834\uDD1E"`: false, `"\n"`: false,
	"\"a\tb\"": false, "\"a\nb\"": false, `"\x"`: false, `"\u12"`: false, `"\u12g4"`: false, `"open`: false, `"a\`: false,
	`"<"`: false, `">"`: false, `"&"`: false, "\"\u2028\"": false, "\"a\u2192b\"": false,
	// Whitespace anywhere is not compact.
	` 1`: false, `1 `: false, "1\n": false, `[1, 2]`: false, `{"a": 1}`: false, `{"a" :1}`: false, `[ ]`: false, "{\t}": false, "[1,\r2]": false,
	// Not exactly one value, or not closed the way it opened.
	``: false, `1 2`: false, `{}{}`: false, `[1,]`: false, `[,1]`: false, `{"a":1,}`: false, `{"a"}`: false, `{"a":}`: false, `{a:1}`: false, `{1:1}`: false,
	`[1}`: false, `{"a":1]`: false, `[`: false, `{`: false, `]`: false, `[1`: false, `{"a":1`: false, `[[1]`: false, `tru`: false, `nul`: false, `falsey`: false, `truetrue`: false,
}

// TestCheckCompact: the checker's answer on every case, the property
// it is relied on for — what it accepts, json.Compact copies unchanged —
// and the depth bound: 64 containers deep passes, 65 is refused, and a
// megabyte of '[' costs one word of state.
func TestCheckCompact(t *testing.T) {
	for src, want := range compactCases {
		if got := checkCompact([]byte(src)); got != want {
			t.Errorf("checkCompact(%q) = %v, want %v", src, got, want)
		}
		var buf bytes.Buffer
		if want && (json.Compact(&buf, []byte(src)) != nil || buf.String() != src) {
			t.Errorf("%q is accepted, and json.Compact makes it %q", src, buf.String())
		}
	}
	nest := func(d int) []byte {
		return append(bytes.Repeat([]byte(`{"a":[`), d/2), append([]byte(`1`), bytes.Repeat([]byte(`]}`), d/2)...)...)
	}
	if !checkCompact(nest(maxDepth)) || checkCompact(nest(maxDepth+2)) {
		t.Errorf("depth bound: %d deep %v, %d deep %v", maxDepth, checkCompact(nest(maxDepth)), maxDepth+2, checkCompact(nest(maxDepth+2)))
	}
	if checkCompact(bytes.Repeat([]byte("["), 1<<20)) {
		t.Error("a megabyte of '[' accepted")
	}
}

// FuzzCheckCompact holds the one direction correctness needs: an
// accepted input is valid JSON that json.Compact copies unchanged and
// that holds none of the bytes the encoder escapes — so the encoder,
// given it as a RawMessage, writes exactly it.
func FuzzCheckCompact(f *testing.F) {
	for src := range compactCases {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !checkCompact(src) {
			return
		}
		var buf bytes.Buffer
		if !json.Valid(src) || json.Compact(&buf, src) != nil || !bytes.Equal(buf.Bytes(), src) {
			t.Fatalf("accepted %q, which json.Compact makes %q (valid: %v)", src, buf.Bytes(), json.Valid(src))
		}
		if enc := encoderBytes(json.RawMessage(src)); !bytes.Equal(enc, append(src, '\n')) {
			t.Fatalf("accepted %q, which the encoder writes as %q", src, enc)
		}
	})
}

// TestReceived: an answer is taken one of three ways on receipt, and
// counted: checked and aliased, valid and left for the writer, refused.
func TestReceived(t *testing.T) {
	for _, tc := range []struct {
		val                  string
		ok, checked          bool
		dChecked, dRecompact int64
	}{
		{realAnswer, true, true, 1, 0},
		{`{"a": 1}`, true, false, 0, 1},
		{`{"a":"<"}`, true, false, 0, 1},
		{`{"makespan": nope}`, false, false, 0, 0},
		{``, false, false, 0, 0},
	} {
		c0, r0 := mChecked.Load(), mRecompacted.Load()
		val := []byte(tc.val)
		r, ok := received(val)
		if ok != tc.ok || r.checked != tc.checked || mChecked.Load()-c0 != tc.dChecked || mRecompacted.Load()-r0 != tc.dRecompact {
			t.Errorf("received(%q): ok %v, checked %v, counters +%d/+%d", tc.val, ok, r.checked, mChecked.Load()-c0, mRecompacted.Load()-r0)
		}
		if ok && &r.Response[0] != &val[0] {
			t.Errorf("received(%q) copied the value", tc.val)
		}
		if ok {
			checkEncode(t, []Result{r})
		}
	}
}

// TestSoleResult: the one-item answer is unwrapped to what
// unmarshalling it gives, whichever way it is spelt, and a body that is
// not exactly one result is refused — the caller's upstream fault.
func TestSoleResult(t *testing.T) {
	for name, results := range encodeCases {
		var body bytes.Buffer
		Encode(&body, &Results{Results: results})
		var want Results
		wantOK := json.Unmarshal(body.Bytes(), &want) == nil && len(want.Results) == 1
		got, ok := SoleResult(body.Bytes())
		if ok != wantOK {
			t.Errorf("%s: ok = %v, want %v for %q", name, ok, wantOK, body.Bytes())
			continue
		}
		if !ok {
			continue
		}
		got.Index = want.Results[0].Index // the fast path leaves it to the caller, who overwrites it
		if a, b := encoderBytes(Result{Index: got.Index, Response: got.Response, Error: got.Error}), encoderBytes(want.Results[0]); !bytes.Equal(a, b) {
			t.Errorf("%s: unwrapped to %q, unmarshalled %q", name, a, b)
		}
		var line bytes.Buffer
		if Encode(&line, got); !bytes.Equal(line.Bytes(), encoderBytes(want.Results[0])) {
			t.Errorf("%s: re-encoded %q, want %q", name, line.Bytes(), encoderBytes(want.Results[0]))
		}
	}
	for _, body := range []string{
		``, `{}`, `{"results":[]}`, `{"results":[{"index":0,"response":{}},{"index":1,"response":{}}]}` + "\n",
		`{"results":[{"index":0,"response":{"a":1}]}` + "\n", `{"results":[{"index":0,"response":}]}` + "\n",
		`{"results":[{"index":0,"response":{}},{"index":1,"response":{}}]}`, `not json`,
	} {
		if r, ok := SoleResult([]byte(body)); ok {
			t.Errorf("SoleResult(%q) = %+v, want refused", body, r)
		}
	}
	// Spelt some other way, it is still one result.
	if r, ok := SoleResult([]byte(` {"results": [ {"index": 0, "response": {"a": 1}} ]}`)); !ok || string(r.Response) != `{"a": 1}` {
		t.Errorf("loose spelling: %+v, %v", r, ok)
	}
}

// TestWriteJSONDeclaresItsLength: every JSON answer goes out under a
// Content-Length, so one past 2 KB is not chunked.
func TestWriteJSONDeclaresItsLength(t *testing.T) {
	big := &Results{Results: []Result{{Response: json.RawMessage(`"` + strings.Repeat("x", 8<<10) + `"`)}}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, big) }))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || !bytes.Equal(body, encoderBytes(big)) {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestReadBodySizesFromTheDeclaredLength: the declared length sizes a
// buffer grown from nothing to about the body, and a length declared
// far above what is sent — or above the tier's cap — preallocates no
// more than the cap. The reading is the buffer's capacity, what the
// body pins while it is held.
func TestReadBodySizesFromTheDeclaredLength(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4<<10) // 64 KiB
	allocated := func(length, limit int64, r io.Reader) (int, int) {
		t.Helper()
		// Two collections empty bodyPools: the reading is of a new buffer,
		// not of whatever size an earlier test left in the pool.
		runtime.GC()
		runtime.GC()
		body, err := ReadBody(r, length, limit)
		defer body.Release()
		if n := len(body.Bytes()); err != nil || !bytes.Equal(body.Bytes(), payload[:n]) {
			t.Fatalf("ReadBody: %d bytes, err %v", n, err)
		}
		return len(body.Bytes()), cap(body.Bytes())
	}
	// Honest length: the whole body, in about its own size.
	if n, got := allocated(int64(len(payload)), 8<<20, bytes.NewReader(payload)); n != len(payload) || got > len(payload)+16<<10 {
		t.Errorf("honest length: read %d bytes into %d", n, got)
	}
	// A gigabyte declared, a kilobyte sent: bounded by bufMax.
	if n, got := allocated(1<<30, 8<<20, bytes.NewReader(payload[:1<<10])); n != 1<<10 || got > bufMax+16<<10 {
		t.Errorf("1 GiB declared: read %d bytes into %d, cap %d", n, got, bufMax)
	}
	// The tier's own cap binds when it is the smaller.
	if n, got := allocated(1<<30, 4<<10, bytes.NewReader(payload[:1<<10])); n != 1<<10 || got > 4<<10+16<<10 {
		t.Errorf("1 GiB declared under a 4 KiB cap: read %d bytes into %d", n, got)
	}
	// Unknown length and a body past the preallocation both still read whole.
	if n, _ := allocated(-1, 8<<20, bytes.NewReader(payload)); n != len(payload) {
		t.Errorf("unknown length: read %d of %d bytes", n, len(payload))
	}
	if n, _ := allocated(16, 8<<20, bytes.NewReader(payload)); n != len(payload) {
		t.Errorf("understated length: read %d of %d bytes", n, len(payload))
	}
	// A read error — the body cap's among them — surfaces unchanged.
	_, err := ReadBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(payload)), 1<<10), int64(len(payload)), 1<<10)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Errorf("over the cap: err = %v, want http.MaxBytesError", err)
	}
}

// TestBodyKeepOutlivesTheRelease: Keep hands the buffer back — under
// Scribble it is overwritten at once — and returns a copy that still
// reads the body; the handle is empty after, and releasing it again
// puts nothing back twice.
func TestBodyKeepOutlivesTheRelease(t *testing.T) {
	Scribble.Store(true)
	defer Scribble.Store(false)
	payload := []byte(`{"requests":[]}`)
	body, err := ReadBody(bytes.NewReader(payload), int64(len(payload)), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	pooled := body.Bytes()
	kept := body.Keep()
	if !bytes.Equal(kept, payload) || body.Bytes() != nil {
		t.Fatalf("kept %q, handle %q; want the body and an empty handle", kept, body.Bytes())
	}
	if !bytes.Equal(pooled, bytes.Repeat([]byte("#"), len(payload))) {
		t.Fatalf("released buffer reads %q, want it scribbled over", pooled)
	}
	body.Release()
}
