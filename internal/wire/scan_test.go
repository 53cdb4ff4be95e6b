package wire

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/task"
)

// The request types of the tiers, mirrored: what DecodeStrict alone
// makes of a body is what the scanner's reading is held to.
type strictItem struct {
	Algorithm  string         `json:"algorithm"`
	Instance   *task.Instance `json:"instance"`
	ExactLimit int            `json:"exact_limit,omitempty"`
}

type strictBatch struct {
	Requests []strictItem `json:"requests"`
}

type strictSpec struct {
	Strategy string  `json:"strategy,omitempty"`
	Replicas [][]int `json:"replicas,omitempty"`
}

type strictPlacedBatch struct {
	Requests  []strictItem `json:"requests"`
	Placement *strictSpec  `json:"placement,omitempty"`
}

// sameItem holds a scanned item to the strictly decoded one, floats by
// bit pattern.
func sameItem(t *testing.T, data []byte, got Item, want strictItem) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.ExactLimit != want.ExactLimit {
		t.Fatalf("scanned (%q, %d), strict (%q, %d)\ninput: %q", got.Algorithm, got.ExactLimit, want.Algorithm, want.ExactLimit, data)
	}
	if (got.Instance == nil) != (want.Instance == nil) {
		t.Fatalf("scanned instance %v, strict %v\ninput: %q", got.Instance, want.Instance, data)
	}
	if got.Instance == nil {
		return
	}
	g, w := got.Instance, want.Instance
	if g.M != w.M || math.Float64bits(g.Alpha) != math.Float64bits(w.Alpha) || len(g.Tasks) != len(w.Tasks) {
		t.Fatalf("scanned %v, strict %v\ninput: %q", g, w, data)
	}
	for j := range g.Tasks {
		a, b := g.Tasks[j], w.Tasks[j]
		if a.ID != b.ID || math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) ||
			math.Float64bits(a.Actual) != math.Float64bits(b.Actual) || math.Float64bits(a.Size) != math.Float64bits(b.Size) {
			t.Fatalf("task %d: scanned %+v, strict %+v\ninput: %q", j, a, b, data)
		}
	}
}

// checkScan is the differential property, for one input read all three
// ways — as an item (a /v1/schedule body or a stream line), as a batch,
// as a batch that may carry a placement. Whatever the scanner takes,
// DecodeStrict alone takes too and decodes to the same values bit for
// bit; whatever it bails on goes to DecodeStrict, so accept/reject and
// the error string are DecodeStrict's by construction. Each item's Raw
// is the item again: forwarding it forwards what was validated.
func checkScan(t *testing.T, data []byte) {
	if it, ok := ScanItem(data); ok {
		var want strictItem
		if err := DecodeStrict(bytes.NewReader(data), &want); err != nil {
			t.Fatalf("scanner took what DecodeStrict refuses: %v\ninput: %q", err, data)
		}
		sameItem(t, data, it, want)
		again, ok := ScanItem(it.Raw)
		if !ok {
			t.Fatalf("Raw %q of a scanned item does not scan", it.Raw)
		}
		sameItem(t, it.Raw, again, want)
	}
	sameBatch := func(items []Item, want []strictItem) {
		if len(items) != len(want) {
			t.Fatalf("scanned %d items, strict %d\ninput: %q", len(items), len(want), data)
		}
		for i := range items {
			sameItem(t, data, items[i], want[i])
			if again, ok := ScanItem(items[i].Raw); !ok {
				t.Fatalf("Raw %q of scanned item %d does not scan", items[i].Raw, i)
			} else {
				sameItem(t, items[i].Raw, again, want[i])
			}
		}
	}
	if items, ok := ScanBatch(data, nil); ok {
		var want strictBatch
		if err := DecodeStrict(bytes.NewReader(data), &want); err != nil {
			t.Fatalf("scanner took a batch DecodeStrict refuses: %v\ninput: %q", err, data)
		}
		sameBatch(items, want.Requests)
	}
	var spec *strictSpec
	if items, ok := ScanBatch(data, &spec); ok {
		var want strictPlacedBatch
		if err := DecodeStrict(bytes.NewReader(data), &want); err != nil {
			t.Fatalf("scanner took a placed batch DecodeStrict refuses: %v\ninput: %q", err, data)
		}
		sameBatch(items, want.Requests)
		if !reflect.DeepEqual(spec, want.Placement) {
			t.Fatalf("scanned placement %+v, strict %+v\ninput: %q", spec, want.Placement, data)
		}
	}
}

const (
	seedInst = `{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}`
	seedItem = `{"algorithm":"lpt-norestriction","instance":` + seedInst + `}`
)

// Canonical spellings: the scanner must take these, or the fast path
// is dead and only the counters would say so.
var (
	canonicalItems = []string{
		seedItem,
		`{"algorithm":"ls-group:2","instance":{"m":4,"alpha":2,"estimates":[1,2,3],"actuals":[2,1,6]},"exact_limit":5}`,
		`{"algorithm":"sabo","instance":{"m":4,"alpha":1.5,"estimates":[4,2,6,1],"sizes":[2,8,1,3]}}`,
		`{"instance":{"sizes":[0,-0],"actuals":[1,2],"estimates":[1,2],"alpha":1,"m":1},"exact_limit":-3,"algorithm":"x"}`,
		" \t\r\n{ \"algorithm\" : \"x\" , \"instance\" : { \"m\" : 1 , \"alpha\" : 1 , \"estimates\" : [ 1 , 2 ] } } \n",
		`{"algorithm":"","instance":{"m":0,"alpha":0,"estimates":[-1]}}`, // invalid, but CheckItem's to say
		`{}`, // likewise
		`{"algorithm":"x","instance":{"m":-0,"alpha":1E+2,"estimates":[1e-999,4.9e-324,1.50,0.1e-1,-0.0,12345678901234567890]}}`,
	}
	canonicalBatches = []string{
		`{"requests":[` + seedItem + `]}`,
		`{"requests":[` + seedItem + `,` + seedItem + `]}` + "\n",
	}
	placedBatches = []string{
		`{"requests":[` + seedItem + `],"placement":{"strategy":"group:2"}}`,
		`{"placement":{"replicas":[[0,1],[1]]},"requests":[` + seedItem + `,` + seedItem + `]}`,
		`{"requests":[` + seedItem + `],"placement":{"replicas":[[0,3]],"strategy":"none"}}`,
		`{"requests":[` + seedItem + `],"placement":null}`,
	}
)

// oddities holds one of every kind of input the scanner leaves to
// DecodeStrict, accepted by it or not.
var oddities = []string{
	`{"requests":[` + seedItem + `],"placement":{"strategy":5}}`,
	`{"requests":[` + seedItem + `],"placement":{"bogus":1}}`,
	`{"requests":[` + seedItem + `],"placement":{"strategy":"a"},"placement":{"strategy":"b"}}`,
	`{"requests":[` + seedItem + `],"placement":{"strategy":"all"}}garbage`,
	`{"requests":[]}`, `{"requests":null}`, `{"requests":[` + seedItem + `,]}`, `{"requests":[` + seedItem + `]`,
	`{"requests":[` + seedItem + `],"requests":[` + seedItem + `]}`,
	`{"requests":[[` + seedItem + `]]}`, `{"requests":[` + seedItem + `],"extra":1}`, `[]`, `{`, ``, `null`,
	// Strings: escapes, bytes past ASCII, control bytes.
	`{"algorithm":"lpt\u002dnochoice","instance":` + seedInst + `}`,
	`{"algorithm":"a\"b","instance":` + seedInst + `}`,
	`{"algorithm":"é","instance":` + seedInst + `}`,
	"{\"algorithm\":\"a\x01b\",\"instance\":" + seedInst + "}",
	"{\"algorithm\":\"a\xffb\",\"instance\":" + seedInst + "}",
	`{"\u0061lgorithm":"x","instance":` + seedInst + `}`,
	// Keys: unknown, case-variant, duplicate; null values.
	`{"algorithm":"x","unknown_field":1}`,
	`{"Algorithm":"x","instance":` + seedInst + `}`,
	`{"algorithm":"x","algorithm":"y","instance":` + seedInst + `}`,
	`{"algorithm":"x","instance":` + seedInst + `,"instance":` + seedInst + `}`,
	`{"algorithm":null,"instance":` + seedInst + `}`,
	`{"algorithm":"x","instance":null}`,
	`{"algorithm":"x","instance":` + seedInst + `,"exact_limit":null}`,
	`{"algorithm":"lpt-nochoice","instance":{"m":2,"alpha":1.5,"estimates":[1,2],"actual":[2,1]}}`,
	`{"algorithm":"x","instance":{"M":2,"alpha":1.5,"estimates":[1,2]}}`,
	`{"algorithm":"x","instance":{"m":2,"m":3,"alpha":1.5,"estimates":[1,2]}}`,
	`{"algorithm":"x","instance":{"m":2,"alpha":1.5,"estimates":[1,2],"estimates":[3]}}`,
	`{"algorithm":"x","instance":{"m":null,"alpha":1,"estimates":[1]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":null}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,null]}}`,
	// Arrays: empty, ragged, nested, absent.
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,2],"actuals":[]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,2],"actuals":[1]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"actuals":[1],"estimates":[1,2]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,2],"sizes":[1,2,3]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,[2]]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,2,]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[,,,,,,,,]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1 2]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1,2}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1}}`,
	`{"algorithm":"x","instance":{}}`,
	`{"algorithm":"x","instance":[1]}`,
	// Structure: trailing data, stray and missing commas.
	`{"algorithm":"x","instance":` + seedInst + `}trailing`,
	`{"algorithm":"x","instance":` + seedInst + `}{}`,
	`{"algorithm":"x","instance":` + seedInst + `,}`,
	`{"algorithm":"x" "instance":` + seedInst + `}`,
	// Numbers outside JSON's grammar, float64's range, an int field's
	// type, or the scanner's 32 bytes.
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1e999]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[01]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1.]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[.5]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[+1]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1234567890123456789012345678901234567890]}}`,
	`{"algorithm":"x","instance":{"m":1.0,"alpha":1,"estimates":[1]}}`,
	`{"algorithm":"x","instance":{"m":1e2,"alpha":1,"estimates":[1]}}`,
	`{"algorithm":"x","instance":{"m":9223372036854775808,"alpha":1,"estimates":[1]}}`,
	`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[1]},"exact_limit":2.5}`,
}

// scanSeeds is every spelling above, and a sweep of number tokens
// through each numeric position.
func scanSeeds() []string {
	seeds := slices.Concat(canonicalItems, canonicalBatches, placedBatches, oddities)
	for _, n := range []string{
		"-0", "0", "1E+2", "1e308", "1e999", "-1e999", "1e-999", "4.9e-324", "01", "00", "1.", ".5", "+1", "-", "-.5", "1e", "1e+",
		"1.5e", "1..5", "1.5.5", "0x10", "1_0", "Inf", "NaN", "1e0400", "0.1e-1", "-0.0", "1.50", "12345678901234567890",
		"9223372036854775807", "9223372036854775808", "-9223372036854775809", "1.7976931348623157e308", "1.7976931348623159e308",
		"1234567890123456789012345678901234567890", "0.1234567890123456789012345678901234567890", "1.0", "1e2", "2.5", `"1"`, "true",
	} {
		seeds = append(seeds,
			`{"algorithm":"x","instance":{"m":1,"alpha":1,"estimates":[`+n+`]}}`,
			`{"algorithm":"x","instance":{"m":1,"alpha":`+n+`,"estimates":[1]}}`,
			`{"algorithm":"x","instance":{"m":`+n+`,"alpha":1,"estimates":[1]},"exact_limit":`+n+`}`)
	}
	return seeds
}

// corpusSeeds reads the committed corpora of the three decode fuzz
// targets, whose inputs are this one's too.
func corpusSeeds(t testing.TB) []string {
	var seeds []string
	files, err := filepath.Glob("../*/testdata/fuzz/FuzzDecode*/*")
	if err != nil || len(files) < 30 {
		t.Fatalf("decode corpora: %d files, %v", len(files), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzScanItem holds the scanner to DecodeStrict (checkScan); a plain
// `go test` runs it over the seeds.
func FuzzScanItem(f *testing.F) {
	for _, s := range append(scanSeeds(), corpusSeeds(f)...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScan(t, data) })
}

// TestScanTakesTheCanonicalSpelling: the differential property cannot
// tell a scanner that bails on everything from a correct one, so the
// spellings the serving path sends are pinned as taken, and one of
// every kind of oddity as left to DecodeStrict.
func TestScanTakesTheCanonicalSpelling(t *testing.T) {
	for _, s := range canonicalItems {
		if it, ok := ScanItem([]byte(s)); !ok || string(it.Raw) != strings.TrimSpace(s) {
			t.Errorf("canonical item: ok=%v, Raw %q: %s", ok, it.Raw, s)
		}
	}
	for i, s := range canonicalBatches {
		if items, ok := ScanBatch([]byte(s), nil); !ok || len(items) != i+1 || string(items[i].Raw) != seedItem {
			t.Errorf("canonical batch: %d items, ok=%v: %s", len(items), ok, s)
		}
	}
	for _, s := range placedBatches {
		var spec *strictSpec
		if _, ok := ScanBatch([]byte(s), &spec); !ok || (spec == nil) != strings.Contains(s, "null") {
			t.Errorf("placed batch: ok=%v, spec %+v: %s", ok, spec, s)
		}
		if _, ok := ScanBatch([]byte(s), nil); ok {
			t.Errorf("a tier that takes no placement scanned one: %s", s)
		}
	}
	for _, s := range oddities {
		var spec *strictSpec
		_, okItem := ScanItem([]byte(s))
		_, okBatch := ScanBatch([]byte(s), &spec)
		if okItem || okBatch {
			t.Errorf("scanner took an oddity (item %v, batch %v): %s", okItem, okBatch, s)
		}
	}
}
