package algo

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/task"
)

// fuzzAlgorithms covers every name family the registry accepts,
// including group variants whose k may or may not fit the fuzzed m.
var fuzzAlgorithms = []string{
	"lpt-nochoice",
	"ls-nochoice",
	"lpt-norestriction",
	"ls-norestriction",
	"oracle-lpt",
	"ls-group:1",
	"ls-group:2",
	"ls-group:3",
	"lpt-group:2",
	"ls-group-balanced:2",
	"tail:1",
	"tail:2",
}

// FuzzExecute drives every registry algorithm over decoded instances:
// no input may panic any phase, every returned schedule must verify
// against its placement, every makespan must fall in the trivial
// bracket [max_j p_j, Σ_j p_j], and — the instance passed
// Validate(true), so its actual times stay within its own α — every
// algorithm that states a guarantee must respect it against LPT's
// upper bound on C*. Errors are only acceptable from group algorithms
// whose group count does not fit the instance.
func FuzzExecute(f *testing.F) {
	f.Add([]byte(`{"m":2,"alpha":1.5,"estimates":[4,2,6,1]}`))
	f.Add([]byte(`{"m":3,"alpha":2,"estimates":[5,5,5],"actuals":[10,2.5,7]}`))
	f.Add([]byte(`{"m":1,"alpha":1,"estimates":[1]}`))
	f.Add([]byte(`{"m":4,"alpha":1.25,"estimates":[0.5,8,3,3,3,0.1,9,2],"actuals":[0.625,6.4,3,3.75,2.4,0.125,11.25,1.6]}`))
	f.Add([]byte(`{"m":6,"alpha":3,"estimates":[1e-9,1e9,7,7,7,7,7]}`))
	// Pinned and shard-wide tasks in one shard (tail:1, tail:2): machines
	// drain their own queues at different times, then share the tail's
	// list; in the second every estimate ties, so ids decide both orders.
	f.Add([]byte(`{"m":3,"alpha":2,"estimates":[9,8,7,6,5,1,1],"actuals":[18,4,7,12,2.5,2,0.5]}`))
	f.Add([]byte(`{"m":2,"alpha":1.5,"estimates":[3,3,3,3,3,3],"actuals":[2.25,4.5,3,2.25,4.5,3]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in task.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return
		}
		// Bound the work per input so the fuzzer explores shapes, not
		// solver runtime.
		if in.N() == 0 || in.N() > 64 || in.M > 16 {
			return
		}
		if err := in.Validate(true); err != nil {
			return
		}
		lo, hi := actualBounds(&in)
		upper, _ := opt.LPT(in.Actuals(), in.M)
		for _, name := range fuzzAlgorithms {
			a, err := New(name)
			if err != nil {
				t.Fatalf("registry rejected its own name %q: %v", name, err)
			}
			res, err := Execute(&in, a)
			if err != nil {
				// The only legitimate failure is a group count that does
				// not fit this instance's machine count.
				if strings.Contains(name, "group") {
					continue
				}
				t.Fatalf("%s failed on valid instance: %v\ninput: %s", name, err, data)
			}
			if res.Schedule == nil || res.Placement == nil {
				t.Fatalf("%s returned nil schedule or placement", name)
			}
			if err := res.Schedule.Verify(&in, res.Placement); err != nil {
				t.Fatalf("%s produced unverifiable schedule: %v\ninput: %s", name, err, data)
			}
			mk := res.Makespan
			if math.IsNaN(mk) || math.IsInf(mk, 0) {
				t.Fatalf("%s makespan %v not finite\ninput: %s", name, mk, data)
			}
			if mk < lo-1e-9*math.Max(1, lo) || mk > hi+1e-9*math.Max(1, hi) {
				t.Fatalf("%s makespan %v outside [%v, %v]\ninput: %s", name, mk, lo, hi, data)
			}
			if rho, ok := a.Guarantee(in.M, in.Alpha); ok && !bounds.Holds(mk, rho, upper) {
				t.Fatalf("%s makespan %v breaks its guarantee %v against C* ≤ %v\ninput: %s",
					name, mk, rho, upper, data)
			}
		}
	})
}
