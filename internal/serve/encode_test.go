package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tick"
	"repro/internal/wire"
)

// responseMirror is ScheduleResponse spelt in plain structs and slices:
// nothing under it marshals or appends itself, so json.Marshal of it is
// the reflective encoding the appenders replaced — the reference that
// shares no code with them.
type responseMirror struct {
	Algorithm  string           `json:"algorithm"`
	N          int              `json:"n"`
	M          int              `json:"m"`
	Alpha      float64          `json:"alpha"`
	Makespan   float64          `json:"makespan"`
	Placement  *placementMirror `json:"placement"`
	Schedule   *scheduleMirror  `json:"schedule"`
	Optimum    OptimumInfo      `json:"optimum"`
	RatioLower float64          `json:"ratio_lower"`
	RatioUpper float64          `json:"ratio_upper"`
	Guarantee  *float64         `json:"guarantee,omitempty"`
	BoundOK    *bool            `json:"bound_ok,omitempty"`
}

type placementMirror struct {
	M       int     `json:"m"`
	Sets    [][]int `json:"sets"`
	Groups  [][]int `json:"groups,omitempty"`
	GroupOf []int   `json:"group_of,omitempty"`
}

type scheduleMirror struct {
	M        int       `json:"m"`
	Machines []int     `json:"machines"`
	Starts   []float64 `json:"starts"`
	Ends     []float64 `json:"ends"`
}

// mirror copies r, a schedule's ticks as the seconds they print as.
func mirror(r *ScheduleResponse) *responseMirror {
	m := &responseMirror{
		Algorithm: r.Algorithm, N: r.N, M: r.M, Alpha: r.Alpha, Makespan: r.Makespan, Optimum: r.Optimum,
		RatioLower: r.RatioLower, RatioUpper: r.RatioUpper, Guarantee: r.Guarantee, BoundOK: r.BoundOK,
	}
	if p := r.Placement; p != nil {
		m.Placement = &placementMirror{M: p.M, Sets: p.Sets, Groups: p.Groups, GroupOf: p.GroupOf}
	}
	if s := r.Schedule; s != nil {
		m.Schedule = &scheduleMirror{M: s.M, Machines: []int{}, Starts: []float64{}, Ends: []float64{}}
		for _, a := range s.Assignments {
			m.Schedule.Machines = append(m.Schedule.Machines, a.Machine)
			m.Schedule.Starts = append(m.Schedule.Starts, a.Start.Seconds())
			m.Schedule.Ends = append(m.Schedule.Ends, a.End.Seconds())
		}
	}
	return m
}

// checkAppend holds one response to the reflective encoding three
// ways: what the appender prints when it does not bail, what
// wire.Encode writes whether it bails or not (nothing, where the
// encoder refuses the value), and what wire.Answer carries. It returns
// whether the appender printed it.
func checkAppend(t *testing.T, r *ScheduleResponse) bool {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(mirror(r)); err != nil {
		want.Reset()
	}
	got, printed := r.AppendJSON([]byte("x"))
	if printed && string(got) != "x"+string(bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
		t.Errorf("AppendJSON wrote %s\nthe encoder    %s", got[1:], want.Bytes())
	}
	var enc bytes.Buffer
	if wire.Encode(&enc, r); !bytes.Equal(enc.Bytes(), want.Bytes()) {
		t.Errorf("wire.Encode wrote %s\nthe encoder     %s", enc.Bytes(), want.Bytes())
	}
	var line, wantLine bytes.Buffer
	wire.Encode(&line, wire.Answer(3, r))
	wantItem := wire.Result{Index: 3, Response: bytes.TrimSuffix(want.Bytes(), []byte("\n"))}
	if want.Len() == 0 {
		_, err := json.Marshal(r)
		wantItem = wire.Failed(3, err.Error())
	}
	if _ = json.NewEncoder(&wantLine).Encode(wantItem); !bytes.Equal(line.Bytes(), wantLine.Bytes()) {
		t.Errorf("wire.Answer's line %s\nthe encoder's      %s", line.Bytes(), wantLine.Bytes())
	}
	return printed
}

// TestAppendResponseMatchesTheEncoder: real answers are printed by the
// appender, byte for byte the encoder's; each stated bail condition
// leaves the value to encoding/json, which renders or refuses it as it
// always has.
func TestAppendResponseMatchesTheEncoder(t *testing.T) {
	s := New(Config{})
	answer := func(body string) *ScheduleResponse {
		req, err := DecodeItem([]byte(body), s.limits)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.runSchedule(req, new(core.Runner))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, body := range []string{
		`{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}}`,
		`{"algorithm":"ls-group:2","instance":{"m":4,"alpha":2,"estimates":[1,2,3],"actuals":[2,1,6]}}`,
		`{"algorithm":"lpt-nochoice","instance":{"m":2,"alpha":1.25,"estimates":[1e-8,3e9,0.1],"actuals":[1.1e-8,2.9e9,0.11]}}`,
		`{"algorithm":"lpt-group:2","instance":{"m":4,"alpha":1.5,"estimates":[4,2,6,1],"sizes":[2,8,1,3]}}`,
	} {
		if !checkAppend(t, answer(body)) {
			t.Errorf("the appender bailed on the answer to %s", body)
		}
	}
	base := `{"algorithm":"lpt-norestriction","instance":{"m":3,"alpha":1.5,"estimates":[4,2,6,1,5]}}`
	for name, spoil := range map[string]func(r *ScheduleResponse){
		"name needs an escape": func(r *ScheduleResponse) { r.Algorithm = "<LPT>" },
		"method past ASCII":    func(r *ScheduleResponse) { r.Optimum.Method = "bornes → supérieures" },
		"makespan not finite":  func(r *ScheduleResponse) { r.Makespan = math.Inf(1) },
		"guarantee not finite": func(r *ScheduleResponse) { g := math.NaN(); r.Guarantee = &g },
		"no placement":         func(r *ScheduleResponse) { r.Placement = nil },
		"no schedule":          func(r *ScheduleResponse) { r.Schedule = nil },
	} {
		r := answer(base)
		if spoil(r); checkAppend(t, r) {
			t.Errorf("%s: the appender printed it", name)
		}
	}
}

// FuzzAppendResponse builds a response from fuzzed strings, shapes and
// float bit patterns and holds it to the reflective encoding
// (checkAppend): the appender prints the encoder's bytes or bails, and
// either way every writer built on it writes what json.Encoder would.
func FuzzAppendResponse(f *testing.F) {
	f.Add("LPT-NoChoice", "bounds", uint8(5), 4, 1.5, 12.25, uint64(1), uint16(0))
	f.Add("LS-Group:2", "exact", uint8(0), 2, 1.0, 0.0, uint64(2), uint16(2|4|8|64))
	f.Add("a<b", "é", uint8(3), -1, 1e-7, 1e21, uint64(3), uint16(1|256))
	f.Add("", "", uint8(9), 0, math.Inf(1), math.Copysign(0, -1), uint64(4), uint16(16|128))
	f.Add("x", "y", uint8(2), 1, 5e-324, math.MaxFloat64, uint64(5), uint16(32))
	f.Fuzz(func(t *testing.T, algorithm, method string, n uint8, m int, alpha, makespan float64, seed uint64, shape uint16) {
		src := rng.New(seed)
		float := func() float64 {
			switch src.Intn(4) {
			case 0:
				return math.Float64frombits(src.Uint64()) // every exponent, NaN and the infinities
			case 1:
				return src.Uniform(0, 1000)
			case 2:
				return float64(src.Intn(100))
			}
			return src.Float64() * 1e-6
		}
		ints := func() []int {
			k := src.Intn(5)
			if k == 0 {
				return nil
			}
			a := make([]int, k-1)
			for i := range a {
				a[i] = src.Intn(1000) - 10
			}
			return a
		}
		r := &ScheduleResponse{
			Algorithm: algorithm, N: int(n), M: m, Alpha: alpha, Makespan: makespan,
			Optimum:    OptimumInfo{Lower: float(), Upper: float(), Exact: shape&1 != 0, Method: method},
			RatioLower: float(), RatioUpper: float(),
		}
		if shape&2 != 0 {
			g := float()
			r.Guarantee = &g
		}
		if shape&4 != 0 {
			ok := shape&8 != 0
			r.BoundOK = &ok
		}
		if shape&16 == 0 {
			r.Placement = &placement.Placement{M: m}
			if shape&32 == 0 {
				r.Placement.Sets = make([][]int, n%33)
				for j := range r.Placement.Sets {
					r.Placement.Sets[j] = ints()
				}
			}
			if shape&64 != 0 {
				r.Placement.Groups, r.Placement.GroupOf = [][]int{ints(), ints()}, ints()
			}
		}
		if shape&128 == 0 {
			r.Schedule = sched.New(int(n%33), m)
			at := func() tick.Tick {
				if src.Intn(2) == 0 {
					return tick.Tick(src.Uint64()) // the whole tick range, negative included
				}
				return tick.Tick(src.Intn(1 << 20))
			}
			for j := range r.Schedule.Assignments {
				r.Schedule.Assignments[j] = sched.Assignment{Machine: src.Intn(64), Start: at(), End: at()}
			}
		}
		checkAppend(t, r)
	})
}
