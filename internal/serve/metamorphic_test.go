package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/tick"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// randomInstance draws a perturbed instance from the workload
// generators, so the property tests cover realistic shapes.
func randomInstance(t *testing.T, seed uint64, n, m int, alpha float64) *task.Instance {
	t.Helper()
	in, err := workload.New(workload.Spec{Name: "iterative", N: n, M: m, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
	if err := in.Validate(true); err != nil {
		t.Fatalf("generated instance invalid: %v", err)
	}
	return in
}

// TestPropertyInstanceRoundTrip: the JSON wire form of an instance is
// lossless — decode(encode(in)) reproduces every field bit-for-bit
// (encoding/json emits shortest round-tripping float literals).
func TestPropertyInstanceRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		in := randomInstance(t, seed, int(10+seed%40), int(2+seed%7), 1+float64(seed%4)/2)
		if seed%3 == 0 {
			// Exercise the sizes path too.
			sizes := make([]float64, in.N())
			for i := range sizes {
				sizes[i] = float64(i%5) / 2
			}
			if err := in.SetSizes(sizes); err != nil {
				t.Fatal(err)
			}
		}
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var again task.Instance
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if again.M != in.M || again.Alpha != in.Alpha || again.N() != in.N() {
			t.Fatalf("seed %d: shape changed", seed)
		}
		for j := range in.Tasks {
			a, b := in.Tasks[j], again.Tasks[j]
			if a != b {
				t.Fatalf("seed %d task %d: %+v != %+v", seed, j, a, b)
			}
		}
		// Second encode must be byte-identical (canonical form).
		data2, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("seed %d: re-encode differs:\n%s\n%s", seed, data, data2)
		}
	}
}

// TestPropertyScheduleMatchesDirectExecute: the HTTP response of
// /v1/schedule is byte-for-byte the JSON encoding of runSchedule on
// fresh solver state for the same request, and its makespan equals a direct algo.Execute.
func TestPropertyScheduleMatchesDirectExecute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	algos := []string{"lpt-nochoice", "ls-nochoice", "lpt-norestriction",
		"ls-norestriction", "oracle-lpt", "ls-group:2", "lpt-group:2", "tail:1"}
	// n > 60 keeps opt.Estimate on its cheap bounds path: these tests
	// pin the serving layer, not the optimum solvers.
	for seed := uint64(1); seed <= 8; seed++ {
		in := randomInstance(t, seed, 64, 4, 1.5)
		name := algos[int(seed)%len(algos)]
		req := &ScheduleRequest{Algorithm: name, Instance: in}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}

		resp, got := post(t, ts, "/v1/schedule", string(body))
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, got)
		}

		want, err := s.runSchedule(req, new(core.Runner))
		if err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}
		var wantBuf bytes.Buffer
		if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBuf.Bytes()) {
			t.Fatalf("%s seed %d: HTTP response differs from direct execution:\n%s\n%s",
				name, seed, got, wantBuf.Bytes())
		}

		a, err := algo.New(name)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := algo.Execute(in, a)
		if err != nil {
			t.Fatal(err)
		}
		if want.Makespan != direct.Makespan {
			t.Fatalf("%s seed %d: makespan %v != direct %v", name, seed, want.Makespan, direct.Makespan)
		}
	}
}

// TestPropertyBatchOrderInvariant: batch results arrive in input
// order with the same bytes for every worker count, including 1.
func TestPropertyBatchOrderInvariant(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const k = 12
	req := &BatchRequest{}
	for i := 0; i < k; i++ {
		in := randomInstance(t, uint64(100+i), 10+i, 2+i%3, 1.25)
		req.Requests = append(req.Requests, ScheduleRequest{
			Algorithm: []string{"lpt-norestriction", "ls-group:2", "oracle-lpt"}[i%3],
			Instance:  in,
		})
	}
	// Make the batch deliberately heterogeneous: one invalid algorithm
	// mid-batch must produce an in-place error, not shift its
	// neighbours.
	req.Requests[5].Algorithm = "ls-group:7" // 7 never divides 3..4 machines

	var reference []byte
	for _, workers := range []int{1, 2, 3, 8, 32} {
		out := s.RunBatch(context.Background(), req, workers)
		if len(out.Results) != k {
			t.Fatalf("workers=%d: %d results", workers, len(out.Results))
		}
		for i, item := range out.Results {
			if item.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, item.Index)
			}
		}
		if out.Results[5].Error == "" || out.Results[5].Response != nil {
			t.Fatalf("workers=%d: item 5 should have failed in place", workers)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = data
		} else if !bytes.Equal(reference, data) {
			t.Fatalf("workers=%d: batch output differs from workers=1", workers)
		}
	}
}

// TestPropertyScheduleMakespanBounds: for every served schedule,
// max_j p_j ≤ makespan ≤ Σ_j p_j — a metamorphic sanity relation that
// needs no reference implementation.
func TestPropertyScheduleMakespanBounds(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for seed := uint64(1); seed <= 10; seed++ {
		in := randomInstance(t, seed*7, 70, 5, 2)
		resp, err := s.runSchedule(&ScheduleRequest{Algorithm: "ls-group:5", Instance: in}, new(core.Runner))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := slices.Max(in.Actuals()), 0.0
		for _, p := range in.Actuals() {
			hi += p
		}
		if resp.Makespan < lo-1e-9 || resp.Makespan > hi+1e-9 {
			t.Fatalf("seed %d: makespan %v outside [%v, %v]", seed, resp.Makespan, lo, hi)
		}
		if resp.RatioLower > resp.RatioUpper+1e-12 {
			t.Fatalf("seed %d: ratio bracket inverted: %v > %v", seed, resp.RatioLower, resp.RatioUpper)
		}
	}
}

// TestPropertyWireFloatsSurviveHTTP pushes awkward float shapes
// (denormals, the largest magnitudes the simulator's nanotick range
// holds) through the full HTTP path and checks the echoed schedule
// still verifies locally. One tick past the range, the instance is
// refused up front with the typed 422, never as a mid-simulation
// overflow.
func TestPropertyWireFloatsSurviveHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 2^63 ns is the first unrepresentable duration; the float64 just
	// below it is the largest in range. The two tiny tasks round to zero
	// ticks, so the sums stay inside the range too.
	const outOfRange = 9223372036.854775808
	largest := math.Nextafter(outOfRange, 0)
	body := func(est []float64) string {
		parts := make([]string, len(est))
		for i, e := range est {
			parts[i] = strconv.FormatFloat(e, 'g', -1, 64)
		}
		return fmt.Sprintf(`{"algorithm":"ls-norestriction","instance":{"m":2,"alpha":1,"estimates":[%s]}}`,
			strings.Join(parts, ","))
	}

	est := []float64{math.SmallestNonzeroFloat64 * 1e10, 1e-300, largest, 1, 3.141592653589793}
	resp, data := post(t, ts, "/v1/schedule", body(est))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	in, err := task.NewEstimated(2, 1, est)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Schedule.Verify(in, out.Placement); err != nil {
		t.Fatalf("round-tripped schedule fails verification: %v", err)
	}

	// In-range durations whose makespan leaves the range: the run
	// reports the overflow instead of a schedule clamped at the limit.
	resp, data = post(t, ts, "/v1/schedule", body([]float64{largest, largest, 1}))
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(string(data), tick.ErrOverflow.Error()) {
		t.Fatalf("saturating makespan: status %d, body %s; want 422 naming the overflow", resp.StatusCode, data)
	}

	for _, huge := range []float64{outOfRange, 1e300} {
		resp, data := post(t, ts, "/v1/schedule", body([]float64{1, huge}))
		if resp.StatusCode != http.StatusUnprocessableEntity ||
			!strings.Contains(string(data), task.ErrTickRange.Error()) {
			t.Fatalf("a %g s task: status %d, body %s; want 422 naming the tick range",
				huge, resp.StatusCode, data)
		}
	}
}
