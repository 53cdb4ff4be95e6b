// Command benchpair answers "is it faster" the way cmd/bench's README
// ("Comparing two commits") says to: it builds cmd/bench from a base
// revision and from the working tree, runs alternating pairs of the two
// binaries on one workload, a seed per pair, and prints each end-to-end
// metric's medians, quartiles, wins and verdict.
//
// Usage (or `make bench-pair BASE=<rev> W=<workload> PAIRS=10`):
//
//	benchpair -base <rev> -workload <name> [-pairs 10] [-seed 101]
//
// Every run is `--trace 0` at cmd/bench's own default window, which a
// test of cmd/bench pins to BENCHMARK.json's run_seconds.
//
// It refuses to run when cmd/bench/ or BENCHMARK.json differ between
// the two sides: a comparison needs identical benchmark code. The base
// tree is a `git archive` of the revision, not a worktree, so nothing
// under .git changes. Trees, binaries and every run's result line go
// under .bench_build/pair/, which .gitignore covers.
//
// Verdicts, per metric: "gain" when the change wins at least nine pairs
// in ten (ties count for neither side) and the medians differ by more
// than the distance between the base's own quartiles; "regression" when
// the change's median is worse than the base's by more than the
// metric's bound in BENCHMARK.json; "unresolved" when the base's
// quartiles lie further apart than that bound and the two sides' runs
// overlap (neither side's every run beats the other's every run);
// "within bound" otherwise. A regression on any metric, or a larger
// share of failed operations on the change side, exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/stats"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a single-workload cmd/bench run prints.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against")
	workload := flag.String("workload", "", "cmd/bench workload name")
	pairs := flag.Int("pairs", 10, "pairs of runs; the README asks for at least ten")
	seed := flag.Uint64("seed", 101, "seed of the first pair; pair i runs on seed+i")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int, seed uint64) error {
	if out, err := exec.Command("git", "diff", "--stat", base, "--", "cmd/bench", "BENCHMARK.json").CombinedOutput(); err != nil {
		return fmt.Errorf("git diff %s: %v\n%s", base, err, out)
	} else if len(bytes.TrimSpace(out)) > 0 {
		return fmt.Errorf("the benchmark differs between %s and the working tree; a comparison needs identical cmd/bench and BENCHMARK.json:\n%s", base, out)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	dir, err := filepath.Abs(filepath.Join(".bench_build", "pair"))
	if err != nil {
		return err
	}
	baseTree := filepath.Join(dir, "base")
	if err := os.RemoveAll(baseTree); err != nil {
		return err
	}
	if err := os.MkdirAll(baseTree, 0o755); err != nil {
		return err
	}
	if err := sh(".", fmt.Sprintf("git archive %q | tar -x -C %q", base, baseTree)); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(dir, "bench.base"), filepath.Join(dir, "bench.change")}
	trees := [2]string{baseTree, "."}
	for side, tree := range trees {
		if err := sh(tree, fmt.Sprintf("go build -o %q ./cmd/bench", bins[side])); err != nil {
			return err
		}
	}

	log, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	defer log.Close()
	var runs [2][]result
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side goes first
			cmd := exec.Command(bins[side], "--workload", workload, "--seed", fmt.Sprint(seed+uint64(i)), "--trace", "0")
			cmd.Dir = trees[side]
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", cmd, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s: result line: %w", cmd, err)
			}
			for _, m := range spec.EndToEnd {
				if _, ok := r.Metrics[m.Name]; !ok {
					return fmt.Errorf("%s: result line has no metric %q", cmd, m.Name)
				}
			}
			fmt.Fprintf(log, "{\"side\":%q,\"seed\":%d,\"result\":%s}\n", [2]string{"base", "change"}[side], seed+uint64(i), lines[len(lines)-1])
			runs[side] = append(runs[side], r)
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d (seed %d) done\n", i+1, pairs, seed+uint64(i))
	}
	if err := log.Close(); err != nil {
		return err
	}

	fmt.Printf("%s: %d pairs, %s (base) vs working tree, seeds %d..%d\n",
		workload, pairs, base, seed, seed+uint64(pairs)-1)
	fmt.Printf("%-14s %-34s %-34s %-6s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, m := range spec.EndToEnd {
		var vals [2][]float64
		for side := range runs {
			for _, r := range runs[side] {
				vals[side] = append(vals[side], r.Metrics[m.Name].Value)
			}
		}
		c := compare(vals[0], vals[1], m.Better == "higher", m.Bound)
		fmt.Printf("%-14s %-34s %-34s %2d/%-3d %s (%+.1f%%)\n", m.Name, c.base, c.change, c.wins, pairs, c.verdict, 100*c.shift)
		regressed = regressed || c.verdict == "regression"
	}
	var failed, attempted [2]int
	for side := range runs {
		for _, r := range runs[side] {
			failed[side] += r.Failed
			attempted[side] += r.Attempted
		}
	}
	fmt.Printf("failed: base %d of %d, change %d of %d\n", failed[0], attempted[0], failed[1], attempted[1])
	if float64(failed[1])*float64(attempted[0]) > float64(failed[0])*float64(attempted[1]) {
		return fmt.Errorf("a larger share of operations failed on the change side")
	}
	if regressed {
		return fmt.Errorf("a metric regressed past its bound")
	}
	return nil
}

func sh(dir, script string) error {
	cmd := exec.Command("bash", "-o", "pipefail", "-c", script)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", script, err)
	}
	return nil
}

// quartiles is a sample's median with its lower and upper quartile.
type quartiles struct{ q1, med, q3 float64 }

func quartilesOf(xs []float64) quartiles {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quartiles{stats.Quantile(sorted, 0.25), stats.Quantile(sorted, 0.5), stats.Quantile(sorted, 0.75)}
}

func (q quartiles) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q.med, q.q1, q.q3) }

// comparison is one metric's row of the report. shift is the change of
// the median relative to the base's, signed so that positive is better.
type comparison struct {
	base, change quartiles
	wins         int
	shift        float64
	verdict      string
}

// compare applies the README's rules to one metric: base[i] and
// change[i] are the two sides of pair i.
func compare(base, change []float64, higherBetter bool, bound float64) comparison {
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c := comparison{base: quartilesOf(base), change: quartilesOf(change)}
	allBetter, allWorse := true, true
	for i := range base {
		if better(change[i], base[i]) {
			c.wins++
		}
		for _, b := range base {
			allBetter = allBetter && better(change[i], b)
			allWorse = allWorse && better(b, change[i])
		}
	}
	c.shift = (c.change.med - c.base.med) / c.base.med
	if !higherBetter {
		c.shift = -c.shift
	}
	spread := c.base.q3 - c.base.q1
	diff := c.change.med - c.base.med
	if diff < 0 {
		diff = -diff
	}
	switch {
	case better(c.change.med, c.base.med) && 10*c.wins >= 9*len(base) && diff > spread:
		c.verdict = "gain"
	case spread > bound*c.base.med && !allBetter && !allWorse:
		c.verdict = "unresolved"
	case c.shift < -bound:
		c.verdict = "regression"
	default:
		c.verdict = "within bound"
	}
	return c
}
