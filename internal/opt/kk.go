package opt

import "slices"

// ldm is the largest differencing method (Karmarkar–Karp): an m-way
// partition of the times whose makespan is another certified upper
// bound on C*. LDM often beats LPT on instances with near-equal large
// tasks (the classic LPT worst cases), so Estimate takes the best of
// both.
//
// The m-way generalization keeps partial solutions (m-vectors of
// loads) ordered by spread, repeatedly merging the two with the
// largest spread by pairing the heaviest load of one with the lightest
// of the other. The pop order is (spread descending, creation sequence
// ascending): equal spreads are common (duplicate task times produce
// identical singleton vectors), and the sequence tie-break makes the
// merge tree a function of the input alone. Ties resolve to the
// earliest-created vector — initial vectors in input position order,
// merged vectors in merge order. TestKarmarkarKarpTieOrderStable pins
// this.
//
// An ldm value is the state of one differencing run. A vector holds
// only the loads that can be non-zero, descending: v[0] is the vector's
// largest load, and the m-len(v) loads it does not store are exactly
// zero. An input time is a one-load vector, a merge of k < m times is
// those k times, and only a vector that has absorbed more than m times
// is a full m-vector of sums — so almost every merge touches a handful
// of floats, not m.
//
// Two queues replace the heap of all n vectors. The one-load vectors
// never enter a heap: their spread is their time (m ≥ 2, so the
// smallest load is a zero), they pop in descending time order, and
// their creation sequence is lower than every merged vector's, so they
// win every tie against one. They are the sorted input itself behind
// the cursor cur. Only merged vectors live in heap.
//
// All vector storage is carved from slab, which is O(n): a merged
// vector stores at most as many loads as it has absorbed times, so the
// live vectors never hold more than n floats. Results are bump-
// allocated in work; a merge that grows the vector allocated last
// extends it in place (a run of ever smaller times is absorbed at O(1)
// each), and a merge with a full vector writes into that vector. When
// work runs out the live vectors are copied to spare and the halves
// swap.
type ldm struct {
	m    int
	desc []float64 // one-load vectors not yet merged: desc[cur:]
	cur  int
	heap ldmHeap

	slab        []float64
	work, spare []float64 // bump arena and its copy target, n loads of slack each
	top         int       // work[:top] is allocated
	sums        []float64 // the loads an overlap merge changed

	unions, overlaps int64 // merges by kind, for the opt.kk_* counters
}

// run differences desc (non-increasing, at least one time) over m ≥ 2
// machines and returns the makespan. desc is only read.
func (s *ldm) run(desc []float64, m int) float64 {
	n := len(desc)
	if n == 1 {
		return desc[0]
	}
	s.m, s.desc, s.cur = m, desc, 0
	s.heap.nodes = s.heap.nodes[:0]
	s.unions, s.overlaps = 0, 0
	room := min(m, n) // no vector stores more loads than this
	if need := 4*n + room; cap(s.slab) < need {
		s.slab = make([]float64, need)
	}
	s.work, s.spare, s.sums = s.slab[:2*n], s.slab[2*n:4*n], s.slab[4*n:4*n+room]
	s.top = 0

	// A merged vector is the newest, so it loses every tie; when its
	// spread is strictly the largest it is the next pop whatever the
	// heap holds, and it is kept in hand instead of pushed and popped. A
	// short vector absorbing a run of times does exactly that.
	var a []float64
	for seq := int32(0); int(seq) < n-1; seq++ {
		if a == nil {
			a = s.pop()
		}
		v := s.merge(a, s.pop())
		spread := v[0]
		if len(v) == m {
			spread -= v[m-1]
		}
		if (s.cur == n || spread > desc[s.cur]) && (len(s.heap.nodes) == 0 || spread > s.heap.nodes[0].spread) {
			a = v
		} else {
			a = nil
			s.heap.push(ldmNode{spread: spread, seq: seq, v: v})
		}
	}
	return a[0] // the last merge leaves one vector; makespan = largest load
}

// pop removes the vector with the largest spread: the next input time
// unless a merged vector's spread is strictly larger.
func (s *ldm) pop() []float64 {
	if s.cur < len(s.desc) && (len(s.heap.nodes) == 0 || s.desc[s.cur] >= s.heap.nodes[0].spread) {
		s.cur++
		return s.desc[s.cur-1 : s.cur]
	}
	return s.heap.pop()
}

// merge pairs a's largest load with b's smallest and so on down — in
// descending storage, a[j] meets b[m-1-j] — and returns the sorted
// result. Both inputs are dead afterwards.
func (s *ldm) merge(a, b []float64) []float64 {
	m, ka, kb := s.m, len(a), len(b)
	if ka+kb <= m {
		// Disjoint: every stored load meets a zero, so the result is the
		// sorted union.
		s.unions++
		if s.atTop(b) {
			a, b, ka, kb = b, a, kb, ka
		}
		var out []float64
		if s.atTop(a) && s.top+kb <= len(s.work) {
			out = a[:ka+kb]
			s.top += kb
		} else {
			out = s.alloc(ka + kb)
		}
		mergeDesc(out, a, b)
		return out
	}
	// Overlap: loads m-kb..ka-1 of a meet a stored load of b and change;
	// a's larger loads and b's larger loads meet zeros and carry over,
	// each run still sorted. Sort the sums alone and merge the three.
	s.overlaps++
	sums := s.sums[:ka+kb-m]
	for j := m - kb; j < ka; j++ {
		sums[j-(m-kb)] = a[j] + b[m-1-j]
	}
	slices.Sort(sums)
	slices.Reverse(sums)
	var out []float64
	switch {
	case ka == m:
		out = a
	case kb == m:
		out = b
	default:
		out = s.alloc(m)
	}
	// With a full input, one carried run is empty and the other already
	// heads out.
	x, y := a[:m-kb], b[:m-ka]
	carried := out[:len(x)+len(y)]
	if len(x) > 0 && len(y) > 0 {
		mergeDesc(carried, x, y)
	}
	mergeDesc(out, carried, sums)
	return out
}

// atTop reports whether v is the vector allocated last, which can grow
// in place. Input times live in desc, never in work.
func (s *ldm) atTop(v []float64) bool {
	return s.top > 0 && &v[len(v)-1] == &s.work[s.top-1]
}

// alloc carves k loads from work. The inputs of the merge in progress
// are not in the heap and are not copied: they stay readable in the
// old half until the merge has written its result.
func (s *ldm) alloc(k int) []float64 {
	if s.top+k > len(s.work) {
		top := 0
		for i := range s.heap.nodes {
			nd := &s.heap.nodes[i]
			k := copy(s.spare[top:], nd.v)
			nd.v = s.spare[top : top+k]
			top += k
		}
		s.work, s.spare, s.top = s.spare, s.work, top
	}
	v := s.work[s.top : s.top+k]
	s.top += k
	return v
}

// mergeDesc writes the non-increasing merge of the non-increasing runs
// x and y into out, len(out) == len(x)+len(y), filling from the back so
// that out may share its first len(x) elements with x: once y is spent
// the rest of x is already in place. A single load of y that lands
// inside x — a full vector absorbing a time, most of KK's merges at
// large m — goes in by a binary search for its slot and one block move;
// one that lands at the end takes the loop's single step.
func mergeDesc(out, x, y []float64) {
	i, j := len(x)-1, len(y)-1
	if j == 0 && i >= 0 && x[i] < y[0] {
		v := y[0]
		lo, hi := 0, i // the slot is the first k with x[k] < v, and x[i] < v
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if x[mid] < v {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(out[lo+1:], x[lo:])
		out[lo] = v
		if &out[0] != &x[0] {
			copy(out, x[:lo])
		}
		return
	}
	for t := len(out) - 1; j >= 0; t-- {
		if i >= 0 && x[i] < y[j] {
			out[t] = x[i]
			i--
		} else {
			out[t] = y[j]
			j--
		}
	}
	if i >= 0 && &out[0] != &x[0] {
		copy(out, x[:i+1])
	}
}

// ldmNode is a merged vector with its heap key.
type ldmNode struct {
	spread float64 // largest load − smallest load
	seq    int32   // merge number
	v      []float64
}

// ldmHeap orders merged vectors by descending spread, ties by
// ascending creation sequence so the pop order is total; see ldm.
type ldmHeap struct {
	nodes []ldmNode
}

func (h *ldmHeap) less(a, b int) bool {
	sa, sb := h.nodes[a].spread, h.nodes[b].spread
	if sa != sb {
		return sa > sb
	}
	return h.nodes[a].seq < h.nodes[b].seq
}

func (h *ldmHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
		i = j
	}
}

func (h *ldmHeap) push(nd ldmNode) {
	h.nodes = append(h.nodes, nd)
	j := len(h.nodes) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
		j = i
	}
}

func (h *ldmHeap) pop() []float64 {
	last := len(h.nodes) - 1
	h.nodes[0], h.nodes[last] = h.nodes[last], h.nodes[0]
	h.down(0, last)
	v := h.nodes[last].v
	h.nodes = h.nodes[:last]
	return v
}
