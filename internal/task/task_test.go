package task

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustInstance(t *testing.T, m int, alpha float64, est, act []float64) *Instance {
	t.Helper()
	in, err := New(m, alpha, est, act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestNewValid(t *testing.T) {
	in := mustInstance(t, 3, 2, []float64{1, 2, 3}, []float64{2, 1, 3})
	if in.N() != 3 || in.M != 3 {
		t.Fatalf("unexpected shape: n=%d m=%d", in.N(), in.M)
	}
}

func TestNewRejectsMismatchedLengths(t *testing.T) {
	if _, err := New(2, 2, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched slice lengths")
	}
}

func TestValidateRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0.5, 0, -1, math.NaN(), math.Inf(1)} {
		in := &Instance{M: 1, Alpha: alpha, Tasks: []Task{{ID: 0, Estimate: 1, Actual: 1}}}
		if err := in.Validate(false); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

func TestValidateRejectsNoMachines(t *testing.T) {
	in := &Instance{M: 0, Alpha: 1, Tasks: []Task{{ID: 0, Estimate: 1}}}
	if err := in.Validate(false); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestValidateRejectsNoTasks(t *testing.T) {
	in := &Instance{M: 1, Alpha: 1}
	if err := in.Validate(false); err == nil {
		t.Fatal("empty task set accepted")
	}
}

func TestValidateRejectsNonPositiveEstimate(t *testing.T) {
	for _, e := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		in := &Instance{M: 1, Alpha: 1, Tasks: []Task{{ID: 0, Estimate: e, Actual: 1}}}
		if err := in.Validate(false); err == nil {
			t.Errorf("estimate=%v accepted", e)
		}
	}
}

func TestValidateRejectsBadIDs(t *testing.T) {
	in := &Instance{M: 1, Alpha: 1, Tasks: []Task{{ID: 5, Estimate: 1, Actual: 1}}}
	if err := in.Validate(false); err == nil {
		t.Fatal("mismatched ID accepted")
	}
}

func TestValidateActualBounds(t *testing.T) {
	// alpha = 2: actual must lie in [0.5, 2] for estimate 1.
	cases := []struct {
		actual float64
		ok     bool
	}{
		{0.5, true}, {1, true}, {2, true}, {0.49, false}, {2.01, false}, {0, false},
	}
	for _, c := range cases {
		in := &Instance{M: 1, Alpha: 2, Tasks: []Task{{ID: 0, Estimate: 1, Actual: c.actual}}}
		err := in.Validate(true)
		if c.ok && err != nil {
			t.Errorf("actual=%v rejected: %v", c.actual, err)
		}
		if !c.ok && err == nil {
			t.Errorf("actual=%v accepted", c.actual)
		}
	}
}

func TestValidateActualToleratesRounding(t *testing.T) {
	est := 3.3333333333333335
	alpha := 1.7
	in := &Instance{M: 1, Alpha: alpha, Tasks: []Task{
		{ID: 0, Estimate: est, Actual: est * alpha}, // exactly at the edge
	}}
	if err := in.Validate(true); err != nil {
		t.Fatalf("edge actual rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := mustInstance(t, 2, 2, []float64{1, 2}, []float64{1, 2})
	cp := in.Clone()
	cp.Tasks[0].Estimate = 99
	if in.Tasks[0].Estimate == 99 {
		t.Fatal("Clone shares task storage")
	}
}

func TestAggregates(t *testing.T) {
	in := mustInstance(t, 2, 2, []float64{1, 2, 3}, []float64{2, 4, 1.5})
	if got := in.TotalEstimate(); got != 6 {
		t.Errorf("TotalEstimate = %v, want 6", got)
	}
}

func TestSetSizes(t *testing.T) {
	in := mustInstance(t, 2, 1, []float64{1, 2}, []float64{1, 2})
	if err := in.SetSizes([]float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := in.TotalSize(); got != 7 {
		t.Errorf("TotalSize = %v, want 7", got)
	}
	if err := in.SetSizes([]float64{1}); err == nil {
		t.Error("short size slice accepted")
	}
	if err := in.SetSizes([]float64{-1, 0}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := mustInstance(t, 4, 1.5, []float64{1, 2, 3}, []float64{1.5, 2, 2.5})
	if err := in.SetSizes([]float64{10, 0, 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != in.M || got.Alpha != in.Alpha || got.N() != in.N() {
		t.Fatalf("round trip changed shape: %v vs %v", got, in)
	}
	for i := range in.Tasks {
		if got.Tasks[i] != in.Tasks[i] {
			t.Fatalf("task %d changed: %+v vs %+v", i, got.Tasks[i], in.Tasks[i])
		}
	}
}

func TestJSONOmitsDefaultActuals(t *testing.T) {
	in, err := NewEstimated(2, 1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Actuals equal estimates; encoding still records them because they
	// are nonzero — decode must reproduce them either way.
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Tasks {
		if got.Tasks[i].Actual != in.Tasks[i].Actual {
			t.Fatalf("actual %d lost in round trip", i)
		}
	}
}

// TestUnmarshalIsStrictAndOneGrammar: a key instanceJSON lacks is an
// error on both of UnmarshalJSON's paths (a misspelt "actuals" was once
// dropped and the instance scheduled with perfect estimates), a
// case-variant key stays what encoding/json makes of it, and the scanner
// and the reflective path build the same instance from a spelling both
// take.
func TestUnmarshalIsStrictAndOneGrammar(t *testing.T) {
	for _, body := range []string{
		`{"m":2,"alpha":1.5,"estimates":[1,2],"actual":[2,1]}`,
		`{"m":2,"alpha":1.5,"estimates":[1,2],"actual":[2,1],"M":2}`, // off the scanner's path too
	} {
		var in Instance
		if err := json.Unmarshal([]byte(body), &in); err == nil || !strings.Contains(err.Error(), `unknown field "actual"`) {
			t.Errorf("%s: err = %v, want the unknown field named", body, err)
		}
	}
	var scanned, reflected Instance
	canonical := `{"m":2,"alpha":1.5,"estimates":[1,2.50,3e0],"sizes":[0,1,2]}`
	variant := `{"M":2,"alpha":1.5,"estimates":[1,2.50,3e0],"sizes":[0,1,2],"actuals":null}`
	for body, want := range map[string]bool{canonical: true, variant: false} {
		s := Scanner{Data: []byte(body)}
		if _, ok := s.Instance(); ok != want {
			t.Fatalf("scanner takes %s: %v, want %v", body, ok, want)
		}
	}
	if err := json.Unmarshal([]byte(canonical), &scanned); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(variant), &reflected); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scanned, reflected) || scanned.Tasks[1] != (Task{ID: 1, Estimate: 2.5, Actual: 2.5, Size: 1}) {
		t.Fatalf("scanner built %+v, encoding/json %+v", scanned, reflected)
	}
	if err := new(Instance).UnmarshalJSON([]byte(canonical + `{}`)); err == nil {
		t.Error("trailing data after an instance accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"m":0,"alpha":1,"estimates":[1]}`)); err == nil {
		t.Fatal("m=0 JSON accepted")
	}
	if _, err := Read(strings.NewReader(`{"m":1,"alpha":2,"estimates":[1,2],"actuals":[1]}`)); err == nil {
		t.Fatal("mismatched actuals accepted")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(raw []uint16, mRaw uint8) bool {
		if len(raw) == 0 {
			raw = []uint16{1}
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		m := int(mRaw%16) + 1
		est := make([]float64, len(raw))
		for i, v := range raw {
			est[i] = float64(v%1000)/10 + 0.1
		}
		in, err := NewEstimated(m, 1.25, est)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.N() != in.N() || got.M != in.M {
			return false
		}
		for i := range got.Tasks {
			if got.Tasks[i].Estimate != in.Tasks[i].Estimate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringMentionsShape(t *testing.T) {
	in := mustInstance(t, 3, 2, []float64{1}, []float64{1})
	s := in.String()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "m=3") {
		t.Fatalf("String() = %q", s)
	}
}
