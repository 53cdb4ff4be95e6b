package opt

import (
	"math"
	"sort"
	"testing"
)

// dualProbe is one dualFeasible call at the full 4M-state budget and
// one at half the states that call used: the answers and the states
// each counted.
type dualProbe struct {
	fits, ok bool
	used     int
	halfFits bool
	halfOK   bool
	halfUsed int
}

// dualGolden pins DualApprox and its oracle's state accounting as the
// decimal-string memo key computed them, before the key became fixed-
// width binary: the value's bits and ok flag, and dualFeasible at the
// lower bound, a quarter and half way to LPT. The half-budget calls
// stop mid-search, so a state counted in another place, or a memo hit
// lost or gained, moves a used count or an ok flag.
var dualGolden = []struct {
	n, m   int
	seed   uint64
	eps    float64
	bits   uint64
	ok     bool
	probes []dualProbe
}{
	{25, 3, 56, 0.1, 0x404368902e05cb73, true, []dualProbe{{true, true, 206012, false, false, 103007}, {true, true, 206012, false, false, 103007}, {true, true, 314631, false, false, 157316}}},
	{25, 3, 56, 0.2, 0x404368902e05cb73, true, []dualProbe{{true, true, 38, false, false, 20}, {true, true, 38, false, false, 20}, {true, true, 38, false, false, 20}}},
	{25, 3, 87, 0.1, 0x40494b7679b441ae, true, []dualProbe{{true, true, 575851, false, false, 287926}, {true, true, 575851, false, false, 287926}, {true, true, 577631, false, false, 288816}}},
	{25, 3, 87, 0.2, 0x40494b7679b441ae, true, []dualProbe{{true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}}},
	{30, 4, 61, 0.1, 0x4041e13fba6fa6f9, false, []dualProbe{{false, false, 4000001, false, false, 2000001}, {false, false, 4000001, false, false, 2000001}, {false, false, 4000001, false, false, 2000001}}},
	{30, 4, 61, 0.2, 0x4041e13fba6fa6f9, true, []dualProbe{{true, true, 109, false, false, 55}, {true, true, 109, false, false, 55}, {true, true, 81, false, false, 41}}},
	{30, 4, 92, 0.2, 0x4040baa3fbb7538f, true, []dualProbe{{true, true, 109, false, false, 55}, {true, true, 109, false, false, 55}, {true, true, 184, false, false, 93}}},
	{40, 6, 71, 0.2, 0x4042107fca2eb3d0, true, []dualProbe{{true, true, 748, false, false, 375}, {true, true, 748, false, false, 375}, {true, true, 748, false, false, 375}}},
	{40, 6, 102, 0.2, 0x404259dacce74b52, true, []dualProbe{{true, true, 624, false, false, 313}, {true, true, 614, false, false, 308}, {true, true, 614, false, false, 308}}},
	{50, 8, 81, 0.2, 0x404139e3631cfa7d, true, []dualProbe{{true, true, 6886, false, false, 3444}, {true, true, 6886, false, false, 3444}, {true, true, 7292, false, false, 3647}}},
	{50, 8, 112, 0.2, 0x4042bfbee8414307, true, []dualProbe{{true, true, 1025, false, false, 513}, {true, true, 1025, false, false, 513}, {true, true, 923, false, false, 462}}},
	{60, 5, 91, 0.1, 0x40518de0d26033d5, true, []dualProbe{{true, true, 452839, false, false, 226420}, {true, true, 452839, false, false, 226420}, {true, true, 452839, false, false, 226420}}},
	{60, 5, 91, 0.2, 0x40518de0d26033d5, true, []dualProbe{{true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}}},
	{60, 5, 122, 0.1, 0x404dd21904986f52, true, []dualProbe{{true, true, 338397, false, false, 169199}, {true, true, 338397, false, false, 169199}, {true, true, 338397, false, false, 169199}}},
	{60, 5, 122, 0.2, 0x404dd21904986f52, true, []dualProbe{{true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}}},
	{45, 4, 76, 0.1, 0x40503532dfab2864, true, []dualProbe{{true, true, 613314, false, false, 306658}, {true, true, 613314, false, false, 306658}, {true, true, 693325, false, false, 346663}}},
	{45, 4, 76, 0.2, 0x40503532dfab2864, true, []dualProbe{{true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}}},
	{45, 4, 107, 0.1, 0x404e74d079e0f690, true, []dualProbe{{true, true, 363857, false, false, 181929}, {true, true, 516605, false, false, 258303}, {true, true, 571375, false, false, 285688}}},
	{45, 4, 107, 0.2, 0x404e74d079e0f690, true, []dualProbe{{true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}, {true, true, 0, true, true, 0}}},
}

func TestDualApproxMatchesGolden(t *testing.T) {
	for _, g := range dualGolden {
		times := randomTimes(g.n, g.seed)
		v, ok := DualApprox(times, g.m, g.eps)
		if math.Float64bits(v) != g.bits || ok != g.ok {
			t.Errorf("n=%d m=%d seed %d eps %v: DualApprox = (%v, %v), want (%v, %v)",
				g.n, g.m, g.seed, g.eps, v, ok, math.Float64frombits(g.bits), g.ok)
		}
		desc := append([]float64(nil), times...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		lb := LowerBound(times, g.m)
		ub, _ := LPT(times, g.m)
		for i, c := range []float64{lb, (3*lb + ub) / 4, (lb + ub) / 2} {
			want := g.probes[i]
			var got dualProbe
			got.fits, got.ok = dualFeasible(desc, g.m, c, g.eps, 4_000_000, &got.used)
			got.halfFits, got.halfOK = dualFeasible(desc, g.m, c, g.eps, got.used/2, &got.halfUsed)
			if got != want {
				t.Errorf("n=%d m=%d seed %d eps %v capacity %d: dualFeasible = %+v, want %+v",
					g.n, g.m, g.seed, g.eps, i, got, want)
			}
		}
	}
}
