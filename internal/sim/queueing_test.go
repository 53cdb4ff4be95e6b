package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
)

// The open engine's theory oracle. oracleRunOpen restates the engine's
// semantics, so a misreading both share passes the differential suites;
// queueing theory is an independent statement of what the two cancel
// policies must produce. Under Poisson arrivals, i.i.d. exponential
// durations per (task, machine) and FCFS priority (the identity order):
//
//   - cancel-on-start over m machines is M/M/m, whose mean response is
//     Erlang C's wait plus one service;
//   - cancel-on-completion at zero cost over m machines is M/M/1 at rate
//     mμ: every idle machine joins the oldest unfinished task, the race
//     ends at the first of m exponential completions, and every loser is
//     free again at that tick (Wang/Joshi/Wornell, arXiv:1404.1328, full
//     replication with cancellation);
//   - two balanced groups, each task on one by a fair coin, are two
//     independent queues of those forms at λ/2;
//   - one task pinned beside replicate-everywhere makes the shard mixed,
//     which routes the same queue through the general loop, and moves
//     the mean only by that one task's start-up transient.
//
// The Duration hook is what makes the durations exponential, and it
// also keeps every run off race collapse, so the oracle covers exactly
// the pending-set loops: the general loop on every shard but the
// race-collapse path's.

// mmmResponse is the mean response of an M/M/m queue at arrival rate
// lambda and service rate 1 per server: Erlang C's probability of
// waiting, by the Erlang B recursion, over the spare capacity m − λ,
// plus one mean service.
func mmmResponse(m int, lambda float64) float64 {
	b := 1.0
	for k := 1; k <= m; k++ {
		b = lambda * b / (float64(k) + lambda*b)
	}
	c := float64(m) * b / (float64(m) - lambda*(1-b))
	return c/(float64(m)-lambda) + 1
}

// raceResponse is the mean response of M/M/1 at rate m, the
// cancel-on-completion queue over m machines at zero cancel cost.
func raceResponse(m int, lambda float64) float64 { return 1 / (float64(m) - lambda) }

// expHook is the Duration hook of i.i.d. rate-1 exponential durations
// per (task, machine): a splitmix64 hash of the pair, so a replica's
// duration does not depend on when or in which order it is asked for.
func expHook(seed uint64) func(j, i int) float64 {
	return func(j, i int) float64 {
		h := seed + uint64(j)*0x9e3779b97f4a7c15 + uint64(i)*0xd1b54a32d192ed03
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
		return -math.Log((float64(h>>11) + 0.5) / (1 << 53))
	}
}

// queueingDraws is one cell's random inputs: n Poisson arrival times
// at rate lambda from rng.New(seed), that generator for the cell's
// coin flips to continue from, and the duration hook, seeded from a
// split of it so that no uniform draw sets both an arrival gap and a
// duration (TestQueueingDrawsIndependent).
func queueingDraws(seed uint64, n int, lambda float64) (arrive []float64, r *rng.Source, hook func(j, i int) float64) {
	r = rng.New(seed)
	arrive = make([]float64, n)
	at := 0.0
	for j := range arrive {
		at += r.Exp(lambda)
		arrive[j] = at
	}
	return arrive, r, expHook(rng.New(seed).Split().Uint64())
}

// queueingSeed is the seed of the cell at load rho on m machines.
func queueingSeed(m int, rho float64) uint64 { return uint64(m)*1000 + uint64(rho*10) }

// ranks returns the rank of each x in xs, 0 for the least.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	out := make([]float64, len(xs))
	for r, i := range idx {
		out[i] = float64(r)
	}
	return out
}

// spearman is the rank correlation of x and y, equal lengths, no ties.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	mean := float64(len(x)-1) / 2
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mean, ry[i]-mean
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestQueueingDrawsIndependent guards the closed-form test's
// independence assumption: in every cell, machine 0's durations and the
// arrival gaps are uncorrelated at lags −1, 0 and +1 (task j's duration
// against the gap before task j+lag), within four standard errors of a
// rank correlation of zero, 4/√n. A hook seeded with the arrival
// stream's own seed walks the same splitmix64 lattice, and reads −1 at
// lag −1: the gap before task j and task j+1's duration come from one
// uniform draw.
func TestQueueingDrawsIndependent(t *testing.T) {
	const n = 8000
	for _, rho := range []float64{0.3, 0.6} {
		for _, m := range []int{1, 8, 65} {
			arrive, _, hook := queueingDraws(queueingSeed(m, rho), n, rho*float64(m))
			gap := make([]float64, n)
			dur := make([]float64, n)
			prev := 0.0
			for j := range arrive {
				gap[j], prev = arrive[j]-prev, arrive[j]
				dur[j] = hook(j, 0)
			}
			for lag := -1; lag <= 1; lag++ {
				lo, hi := max(0, -lag), min(n, n-lag)
				if r := spearman(dur[lo:hi], gap[lo+lag:hi+lag]); math.Abs(r) >= 4/math.Sqrt(n) {
					t.Errorf("ρ=%g/m=%d: rank correlation of durations and gaps at lag %+d is %.4f, want |ρ_s| < %.4f",
						rho, m, lag, r, 4/math.Sqrt(n))
				}
			}
		}
	}
}

// batchMeans is the mean of xs and its batch-means standard error over
// batches contiguous runs, the error estimate for a correlated series
// such as successive response times.
func batchMeans(xs []float64, batches int) (mean, se float64) {
	size := len(xs) / batches
	means := make([]float64, batches)
	for b := range means {
		for _, x := range xs[b*size : (b+1)*size] {
			means[b] += x
		}
		means[b] /= float64(size)
		mean += means[b]
	}
	mean /= float64(batches)
	for _, bm := range means {
		se += (bm - mean) * (bm - mean)
	}
	return mean, math.Sqrt(se / float64(batches*(batches-1)))
}

// TestOpenQueueingClosedForms holds the open engine's mean response to
// the closed forms above within four batch-means standard errors, at
// loads 0.3 and 0.6 on 1, 8 and 65 machines (65 is two cohort-mask
// words), both policies, every placement the machine count allows.
func TestOpenQueueingClosedForms(t *testing.T) {
	const (
		n       = 8000
		batches = 20
	)
	for _, rho := range []float64{0.3, 0.6} {
		for _, m := range []int{1, 8, 65} {
			lambda := rho * float64(m)
			arrive, r, hook := queueingDraws(queueingSeed(m, rho), n, lambda)
			ones := make([]float64, n)
			for j := range ones {
				ones[j] = 1
			}
			in, err := task.New(m, 1, ones, ones)
			if err != nil {
				t.Fatal(err)
			}
			type cell struct {
				name string
				p    *placement.Placement
				want func(form func(int, float64) float64) float64
			}
			whole := func(form func(int, float64) float64) float64 { return form(m, lambda) }
			cells := []cell{{"everywhere", placement.Everywhere(n, m), whole}}
			if m > 1 {
				groups, err := placement.PartitionGroupsBalanced(m, 2)
				if err != nil {
					t.Fatal(err)
				}
				split := placement.New(n, m)
				for j := 0; j < n; j++ {
					split.Sets[j] = groups[r.Intn(2)]
				}
				pinned := placement.Everywhere(n, m)
				pinned.Sets[0] = []int{0}
				cells = append(cells,
					cell{"groups", split, func(form func(int, float64) float64) float64 {
						return (form(len(groups[0]), lambda/2) + form(len(groups[1]), lambda/2)) / 2
					}},
					cell{"pinned", pinned, whole})
			}
			for _, c := range cells {
				for _, pol := range []struct {
					opts OpenOptions
					form func(int, float64) float64
				}{
					{OpenOptions{Policy: CancelOnStart}, mmmResponse},
					{OpenOptions{Policy: CancelOnCompletion}, raceResponse},
				} {
					opts := pol.opts
					opts.Duration = hook
					want := c.want(pol.form)
					label := fmt.Sprintf("ρ=%g/m=%d/%s/%v", rho, m, c.name, opts.Policy)
					res, err := RunFlatOpenSharded(in, c.p, identityOrder(n), arrive, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mean, se := batchMeans(res.Responses, batches)
					if math.Abs(mean-want) > 4*se {
						t.Errorf("%s: mean response %.4f, closed form %.4f, %.1f standard errors (se %.4f)",
							label, mean, want, math.Abs(mean-want)/se, se)
					}
				}
			}
		}
	}
}
