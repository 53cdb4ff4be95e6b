package loadheap

import (
	"math"
	"testing"

	"repro/internal/tick"
)

// Heap is the float tree under the name the tie audits in
// loadheap_test.go were written against, when a binary heap answered
// them; they hold the tree to the same rule unchanged.
type Heap = Tree[float64]

// Len returns the number of machines. Only those audits ask.
func (t *Tree[K]) Len() int { return t.m }

// scan is the naive answer the tree must give: least key, lowest index
// first, among the live leaves; -1 when every leaf is retired.
func scan[K Key](keys []K, live []bool) int {
	best := -1
	for i, k := range keys {
		if live[i] && (best < 0 || k < keys[best]) {
			best = i
		}
	}
	return best
}

// TestPadKey pins the pad at the top of each key kind's range, where no
// live key can beat it.
func TestPadKey(t *testing.T) {
	if got := padKey[float64](); !math.IsInf(got, 1) {
		t.Fatalf("float pad = %v, want +Inf", got)
	}
	if got := padKey[tick.Tick](); got != tick.Max {
		t.Fatalf("tick pad = %d, want tick.Max", got)
	}
}

// FuzzTree drives the tree and a naive scan with the same operations —
// AddToMin with a delta from a few values (zero included, so ties are
// constant), Set of any leaf, retire and re-set — and requires the same
// winner and key after every one, and the touched leaf's Key, at sizes
// from 1 to 1,100 machines, powers of two and not. An odd-length input
// starts from ResetRetired, every machine out, as the open engine does.
func FuzzTree(f *testing.F) {
	f.Add(uint16(1), []byte{0, 0, 0})
	f.Add(uint16(5), []byte{1, 2, 3, 0, 7, 9, 2, 2})
	f.Add(uint16(64), []byte{4, 4, 4, 4, 255, 128, 6, 6})
	f.Add(uint16(1099), []byte{3, 200, 17, 5, 96, 1, 0, 2, 250})
	f.Add(uint16(70), []byte{2, 9, 6, 33, 0, 0, 3, 9, 1}) // odd length: starts retired
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		m := 1 + int(size)%1100
		var tr Tree[float64]
		keys := make([]float64, m)
		live := make([]bool, m)
		if len(ops)%2 == 0 {
			tr.Reset(m)
			for i := range live {
				live[i] = true
			}
		} else {
			tr.ResetRetired(m) // every machine out until a Set brings it in
		}
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], int(ops[k+1])
			switch op % 4 {
			case 0, 1: // the assignment step
				if i := scan(keys, live); i >= 0 {
					d := float64(arg%4) / 2
					keys[i] += d
					tr.AddToMin(d)
				}
			case 2: // any leaf to any of a few keys
				i := (arg * 131) % m
				keys[i], live[i] = float64(op/4%5), true
				tr.Set(i, keys[i])
			case 3: // retire a leaf
				i := (arg * 131) % m
				live[i] = false
				tr.Set(i, math.Inf(1))
			}
			if i := (arg * 131) % m; live[i] != !math.IsInf(tr.Key(i), 1) || live[i] && tr.Key(i) != keys[i] {
				t.Fatalf("m=%d op %d: leaf %d key %v, live %v at %v", m, k/2, i, tr.Key(i), live[i], keys[i])
			}
			want := scan(keys, live)
			if want < 0 {
				if !math.IsInf(tr.MinLoad(), 1) {
					t.Fatalf("m=%d op %d: all retired, winner key %v", m, k/2, tr.MinLoad())
				}
				continue
			}
			if got := tr.MinID(); got != want || tr.MinLoad() != keys[want] {
				t.Fatalf("m=%d op %d: winner (%d, %v), scan (%d, %v)", m, k/2, got, tr.MinLoad(), want, keys[want])
			}
		}
	})
}
