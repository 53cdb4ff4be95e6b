package opt

import (
	"sort"

	"repro/internal/loadheap"
)

// The kernels the cold solve replaced, kept verbatim as differential
// oracles: the dense-slab Karmarkar–Karp (an n·m slab, a full m-vector
// sort per merge, every vector in the heap), the linear-scan first fit,
// and the estimate pass that sorted the times once per kernel. They are
// allocation-happy and quadratic on purpose — nothing benchmarks them;
// TestEstimateKernelsMatchOracle and FuzzEstimateKernels compare the
// production kernels against them bit for bit.

func oracleKarmarkarKarp(times []float64, m int) float64 {
	n := len(times)
	if n == 0 {
		return 0
	}
	if m <= 1 {
		s := 0.0
		for _, p := range times {
			s += p
		}
		return s
	}

	slab := make([]float64, n*m) // ascending loads; only the last is non-zero
	h := denseHeap{vec: make([][]float64, n), seq: make([]int32, n)}
	for i, p := range times {
		v := slab[i*m : (i+1)*m : (i+1)*m]
		v[m-1] = p
		h.vec[i] = v
		h.seq[i] = int32(i)
	}
	nextSeq := int32(n)
	h.init()
	for len(h.vec) > 1 {
		a := h.pop()
		b := h.pop()
		for i := 0; i < m; i++ {
			a[i] += b[m-1-i]
		}
		sort.Float64s(a)
		h.push(a, nextSeq)
		nextSeq++
	}
	return h.vec[0][m-1]
}

// denseHeap orders dense m-vectors by descending spread, ties by
// ascending creation sequence.
type denseHeap struct {
	vec [][]float64
	seq []int32
}

func (h *denseHeap) less(a, b int) bool {
	sa := h.vec[a][len(h.vec[a])-1] - h.vec[a][0]
	sb := h.vec[b][len(h.vec[b])-1] - h.vec[b][0]
	if sa != sb {
		return sa > sb
	}
	return h.seq[a] < h.seq[b]
}

func (h *denseHeap) swap(i, j int) {
	h.vec[i], h.vec[j] = h.vec[j], h.vec[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
}

func (h *denseHeap) init() {
	n := len(h.vec)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *denseHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

func (h *denseHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

func (h *denseHeap) push(v []float64, seq int32) {
	h.vec = append(h.vec, v)
	h.seq = append(h.seq, seq)
	h.up(len(h.vec) - 1)
}

func (h *denseHeap) pop() []float64 {
	last := len(h.vec) - 1
	h.swap(0, last)
	h.down(0, last)
	v := h.vec[last]
	h.vec = h.vec[:last]
	h.seq = h.seq[:last]
	return v
}

// oracleFFDFits is first fit decreasing as the textbook states it:
// every item walks the open bins in order.
func oracleFFDFits(desc []float64, m int, capacity float64) bool {
	const eps = 1e-12
	bins := make([]float64, 0, m)
	for _, p := range desc {
		placed := false
		for i := range bins {
			if bins[i]+p <= capacity*(1+eps) {
				bins[i] += p
				placed = true
				break
			}
		}
		if !placed {
			if len(bins) == m {
				return false
			}
			if p > capacity*(1+eps) {
				return false
			}
			bins = append(bins, p)
		}
	}
	return true
}

func oracleDesc(times []float64) []float64 {
	desc := make([]float64, len(times))
	copy(desc, times)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	return desc
}

func oracleLPT(times []float64, m int) float64 {
	var loads loadheap.Tree[float64]
	return lptMakespanDesc(oracleDesc(times), m, &loads)
}

func oracleMultiFit(times []float64, m int, iterations int) float64 {
	desc := oracleDesc(times)
	lo := LowerBound(times, m)
	hi := oracleLPT(times, m)
	if oracleFFDFits(desc, m, lo) {
		return lo
	}
	for it := 0; it < iterations; it++ {
		mid := (lo + hi) / 2
		if oracleFFDFits(desc, m, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// oracleExact is the branch and bound with its own sort and its own
// LowerBound/LPT/MULTIFIT seed, as Exact ran it before estimateUncached
// handed those over.
func oracleExact(times []float64, m int, maxNodes int) (float64, bool) {
	n := len(times)
	if n == 0 {
		return 0, true
	}
	if m >= n {
		return MaxLowerBound(times), true
	}
	desc := oracleDesc(times)
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + desc[i]
	}
	lb := LowerBound(times, m)
	best := oracleLPT(times, m)
	if mf := oracleMultiFit(times, m, 24); mf < best {
		best = mf
	}
	if nearlyEqual(best, lb) {
		return best, true
	}

	loads := make([]float64, m)
	nodes := 0
	exhausted := false

	var dfs func(j int)
	dfs = func(j int) {
		if exhausted {
			return
		}
		nodes++
		if nodes > maxNodes {
			exhausted = true
			return
		}
		if j == n {
			max := 0.0
			for _, l := range loads {
				if l > max {
					max = l
				}
			}
			if max < best {
				best = max
			}
			return
		}
		minLoad := loads[0]
		for _, l := range loads[1:] {
			if l < minLoad {
				minLoad = l
			}
		}
		if minLoad+desc[j] >= best-1e-12 {
			return
		}
		if (suffix[j]+sum(loads))/float64(m) >= best-1e-12 && minLoad >= best-1e-12 {
			return
		}
		seenEmpty := false
		for i := 0; i < m; i++ {
			if loads[i] == 0 {
				if seenEmpty {
					continue
				}
				seenEmpty = true
			}
			if loads[i]+desc[j] >= best-1e-12 {
				continue
			}
			dup := false
			for i2 := 0; i2 < i; i2++ {
				if loads[i2] == loads[i] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			loads[i] += desc[j]
			dfs(j + 1)
			loads[i] -= desc[j]
			if exhausted {
				return
			}
			if nearlyEqual(best, lb) {
				return
			}
		}
	}
	dfs(0)
	return best, !exhausted
}

// oracleEstimate is estimateUncached as it stood on the old kernels.
func oracleEstimate(times []float64, m int, exactLimit int) Result {
	n := len(times)
	lb := LowerBound(times, m)
	ub := oracleLPT(times, m)
	if mf := oracleMultiFit(times, m, 24); mf < ub {
		ub = mf
	}
	if kk := oracleKarmarkarKarp(times, m); kk < ub {
		ub = kk
	}
	if nearlyEqual(lb, ub) {
		return Result{Lower: lb, Upper: lb, Exact: true, Method: "bounds"}
	}
	if n <= exactLimit {
		if v, ok := oracleExact(times, m, exactBudget(m)); ok {
			return Result{Lower: v, Upper: v, Exact: true, Method: "exact"}
		}
	}
	return Result{Lower: lb, Upper: ub, Method: "bounds"}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
