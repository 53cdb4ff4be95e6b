// Package loadheap answers the one question both of the paper's phases
// ask: which machine has the least load, lowest index on ties? Phase 1
// (LPT-No Choice, LS-Group, ABO's π1/π2) asks it of estimated loads;
// phase 2, Graham's list scheduling, of completion ticks, where the
// first idle machine is the one whose task ends first.
//
// Why a tree: Tree is a winner (tournament) tree. Its leaves are the
// machines in index order, padded to a power of two with the largest
// key, and each internal node holds its subtree's winning leaf. Changing
// a leaf replays the log2 matches on its path to the root, each one
// compare and a conditional move, with no early exit. The binary heaps
// it replaced branched twice a level on the keys (which child, and
// whether to stop), and the assignment loop is bound by those branches,
// not by its stores: on a 2-core x86-64 host the fixed path runs the
// LPT kernels (root bench_test.go) 1.6× faster at m=64, 1.8× at m=512.
//
// Ties: the left child wins. Every leaf of a left subtree has a lower
// index than every leaf of its sibling, so by induction each node holds
// the least (key, index) pair of its subtree. That is the strict total
// order a linear scan gives, so the winner is unique and no assignment
// can differ from a scan's or a heap's.
//
// Keys are finite: a NaN compares false both ways and breaks the order.
// The package does not check; its keys are sums of validated task times
// (task.Instance.Validate) or int64 ticks. The pad key, +Inf for a float
// K and math.MaxInt64 for an integer one, never beats a machine. Setting
// a leaf to it retires the machine: it wins again only when every leaf
// is retired, which is how a caller sees that none is left.
package loadheap

import (
	"math"
	"slices"
)

// Key is what a Tree orders machines by: a float load or an integer
// completion tick.
type Key interface{ ~int64 | ~float64 }

// Tree is a winner tree over machine keys. The zero value is empty;
// call Reset before use. A reused Tree allocates nothing once grown.
type Tree[K Key] struct {
	key []K // leaves: machine i's key at i < m, the pad key up to a power of two
	// win[n] is node n's winning leaf: the root is 1, n's children are 2n
	// and 2n+1, and node len(key)+i is leaf i itself, so every match
	// reads win the same way.
	win []int32
	m   int
}

// padKey is the largest value of K. A float K converts 0.5 to itself,
// an integer K truncates it to 0.
func padKey[K Key]() K {
	half := 0.5
	if K(half) != 0 {
		return K(math.Inf(1))
	}
	return K(math.MaxInt64)
}

// Reset re-initializes the tree to m leaves with zero key, reusing its
// arrays. Machines at zero and pads at the top make each node's winner
// its leftmost leaf, so no match is played.
func (t *Tree[K]) Reset(m int) {
	p := 1
	for p < m {
		p <<= 1
	}
	t.m = m
	// Grown like an append, so the engine's per-shard Reset is zero-alloc.
	t.key = slices.Grow(t.key[:0], p)[:p]
	t.win = slices.Grow(t.win[:0], 2*p)[:2*p]
	clear(t.key[:m])
	pad := padKey[K]()
	for i := m; i < p; i++ {
		t.key[i] = pad
	}
	for i := 0; i < p; i++ {
		t.win[p+i] = int32(i)
	}
	for n := p - 1; n > 0; n-- {
		t.win[n] = t.win[2*n]
	}
}

// ResetRetired is Reset with every machine retired: all m leaves start
// at the pad key, so nothing wins until a Set brings a machine in. The
// open engine's machines start this way, dormant until a task arrives.
// Every key is equal, so the leftmost winners Reset laid out stand.
func (t *Tree[K]) ResetRetired(m int) {
	t.Reset(m)
	pad := padKey[K]()
	for i := range t.key[:m] {
		t.key[i] = pad
	}
}

// Key returns leaf i's key; the pad key says the machine is retired.
func (t *Tree[K]) Key(i int) K { return t.key[i] }

// MinID returns the winner: least key, lowest index on ties.
func (t *Tree[K]) MinID() int { return int(t.win[1]) }

// MinLoad returns the winner's key.
func (t *Tree[K]) MinLoad() K { return t.key[t.win[1]] }

// MaxLoad returns the largest machine key, the accumulated makespan.
func (t *Tree[K]) MaxLoad() K {
	var max K
	for _, k := range t.key[:t.m] {
		if k > max {
			max = k
		}
	}
	return max
}

// AddToMin adds delta to the winner's key and replays its path: the
// assignment loop's one step, give work to the least-loaded machine.
//
//perf:hotpath
func (t *Tree[K]) AddToMin(delta K) {
	i := int(t.win[1])
	t.Set(i, t.key[i]+delta)
}

// Set gives leaf i the key k and replays the matches on its path to the
// root, the left contestant winning ties. The pad key retires the leaf.
func (t *Tree[K]) Set(i int, k K) {
	key, win := t.key, t.win
	key[i] = k
	for n := (len(key) + i) >> 1; n > 0; n >>= 1 {
		l, r := win[2*n], win[2*n+1]
		if key[r] < key[l] {
			l = r
		}
		win[n] = l
	}
}
