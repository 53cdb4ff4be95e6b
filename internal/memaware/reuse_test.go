package memaware

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/task"
)

// reuseInstance turns fuzz bytes into an instance of up to 160 tasks:
// three bytes a task give its estimate, its actual time within α = 2 of
// it, and its size, zero included. m is 1 to 16.
func reuseInstance(data []byte, mRaw uint8) (*task.Instance, error) {
	n := min(len(data)/3, 160)
	if n == 0 {
		return nil, errors.New("no tasks")
	}
	est, act, sizes := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		b := data[3*j : 3*j+3]
		est[j] = 1 + float64(b[0])/8
		act[j] = est[j] * math.Pow(2, float64(b[1])/127.5-1)
		sizes[j] = float64(b[2] % 17)
	}
	in, err := task.New(1+int(mRaw%16), 2, est, act)
	if err != nil {
		return nil, err
	}
	return in, in.SetSizes(sizes)
}

// reuseMappings are the reference schedules a call may plug in: LPT
// into the scratch's buffers (nil), the exact search, and two custom
// mappings that read their weights, so a call handed another call's
// column would place differently. "short" returns a mapping one task
// short, the length check's error.
var reuseMappings = []struct {
	name string
	f    MappingFunc
}{
	{"lpt", nil},
	{"exact", ExactMapping},
	{"by-weight", func(w []float64, m int) []int {
		out := make([]int, len(w))
		for j, x := range w {
			out[j] = int(x*7) % m
		}
		return out
	}},
	{"round-robin", func(w []float64, m int) []int {
		out := make([]int, len(w))
		for j := range out {
			out[j] = j % m
		}
		return out
	}},
	{"short", func(w []float64, m int) []int { return make([]int, len(w)-1) }},
}

// runReuse runs one of ABO, SABO and GABO on sc.
func runReuse(sc *scratch, alg int, in *task.Instance, cfg Config, k int) (*Result, error) {
	switch alg {
	case 0:
		return sc.abo(in, cfg)
	case 1:
		return sc.sabo(in, cfg)
	default:
		return sc.gabo(in, cfg, k)
	}
}

// sameOutcome reports how two runs differ, or "" when every field of
// both results is the same — floats bit for bit — or both failed with
// the same error.
func sameOutcome(a *Result, aErr error, b *Result, bErr error) string {
	if aErr != nil || bErr != nil {
		if fmt.Sprint(aErr) != fmt.Sprint(bErr) {
			return fmt.Sprintf("errors %v, %v", aErr, bErr)
		}
		return ""
	}
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"Makespan", a.Makespan, b.Makespan},
		{"MemMax", a.MemMax, b.MemMax},
		{"PlannedMakespan", a.PlannedMakespan, b.PlannedMakespan},
		{"PlannedMemory", a.PlannedMemory, b.PlannedMemory},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s %v, %v", f.name, f.x, f.y)
		}
	}
	switch {
	case a.Algorithm != b.Algorithm:
		return fmt.Sprintf("Algorithm %q, %q", a.Algorithm, b.Algorithm)
	case !slices.Equal(a.TimeIntensive, b.TimeIntensive) || !slices.Equal(a.MemoryIntensive, b.MemoryIntensive):
		return "S1/S2 lists"
	case a.Placement.M != b.Placement.M || !slices.EqualFunc(a.Placement.Sets, b.Placement.Sets, slices.Equal[[]int]):
		return "placement"
	case a.Schedule.M != b.Schedule.M || !slices.Equal(a.Schedule.Assignments, b.Schedule.Assignments):
		return "schedule"
	case !slices.Equal(a.Schedule.Dispatched, b.Schedule.Dispatched):
		return "dispatch record"
	}
	return ""
}

// FuzzReuse holds ABO, SABO and GABO run on one reused scratch to the
// same call on a fresh one, across instances whose n, m and Δ change
// from call to call and reference schedules that switch between LPT
// into the scratch's buffers and custom mappings of their own. Results
// the reused scratch returned earlier are checked again afterwards: the
// caller owns them, so no later call may write into them.
func FuzzReuse(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), uint8(3), uint16(100), uint8(0))
	f.Add([]byte{1, 2, 3, 200, 0, 16, 7, 7, 7, 255, 255, 0, 9, 128, 5}, uint8(1), uint16(1), uint8(0x31))
	f.Add(make([]byte, 90), uint8(15), uint16(65535), uint8(0x47))
	f.Add([]byte("a memory-aware run through a pooled scratch, then another"), uint8(7), uint16(0), uint8(0x22))
	f.Add([]byte("ABO pins S2 per pi2 and replicates S1 everywhere"), uint8(5), uint16(40), uint8(0x98))
	// The first seed's shape again: this run reuses the buffers that
	// one's schedule would still share if the runner had kept it.
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), uint8(3), uint16(3000), uint8(0x80))

	reused := new(scratch)
	type kept struct {
		res  *Result
		copy Result
	}
	var history []kept
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint8, deltaRaw uint16, mode uint8) {
		in, err := reuseInstance(data, mRaw)
		if err != nil {
			t.Skip(err)
		}
		// Δ from 1/64 to 1024, and 0 — the bad-Δ error — at deltaRaw 0.
		delta := 0.0
		if deltaRaw > 0 {
			delta = math.Pow(2, float64(deltaRaw)/65535*16-6)
		}
		alg := int(mode % 3)
		pi1, pi2 := reuseMappings[int(mode/3)%len(reuseMappings)], reuseMappings[int(mode/15)%len(reuseMappings)]
		if in.N() > 10 && (pi1.name == "exact" || pi2.name == "exact") {
			pi1, pi2 = reuseMappings[0], reuseMappings[0] // the exact search is for small instances
		}
		cfg := Config{Delta: delta, Pi1: pi1.f, Pi2: pi2.f}
		k := []int{1, in.M}[int(mode>>7)]

		got, gotErr := runReuse(reused, alg, in, cfg, k)
		want, wantErr := runReuse(new(scratch), alg, in, cfg, k)
		if diff := sameOutcome(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("alg %d, n=%d m=%d Δ=%v, π1 %s, π2 %s: reused scratch differs from a fresh one: %s",
				alg, in.N(), in.M, delta, pi1.name, pi2.name, diff)
		}
		for _, h := range history {
			if diff := sameOutcome(h.res, nil, &h.copy, nil); diff != "" {
				t.Fatalf("an earlier result changed after the scratch ran again: %s", diff)
			}
		}
		if gotErr == nil {
			history = append(history, kept{got, *cloneResult(got)})
			if len(history) > 4 {
				history = history[1:]
			}
		}
	})
}

// cloneResult copies every slice a Result holds.
func cloneResult(r *Result) *Result {
	c := *r
	p := *r.Placement
	p.Sets = make([][]int, len(r.Placement.Sets))
	for j, set := range r.Placement.Sets {
		p.Sets[j] = slices.Clone(set)
	}
	c.Placement = &p
	s := *r.Schedule
	s.Assignments = slices.Clone(s.Assignments)
	s.Dispatched = slices.Clone(s.Dispatched)
	c.Schedule = &s
	c.TimeIntensive = slices.Clone(r.TimeIntensive)
	c.MemoryIntensive = slices.Clone(r.MemoryIntensive)
	return &c
}
