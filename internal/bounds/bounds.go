// Package bounds encodes every analytic guarantee stated in the
// paper, as plain functions of the model parameters. The experiment
// harness evaluates them to regenerate the paper's Table 1, Table 2,
// Figure 3 and Figure 6; the test suite cross-checks them against the
// empirical behaviour of the algorithms in package algo and memaware.
//
// Throughout, m is the machine count, alpha (α ≥ 1) the uncertainty
// factor, k the number of machine groups, delta (Δ > 0) the
// time/memory threshold of the bi-objective algorithms, and rho1/rho2
// (ρ1, ρ2) the approximation factors of the single-objective schedules
// the bi-objective algorithms combine.
package bounds

import (
	"fmt"
	"math"
)

// LowerBoundNoReplication is Theorem 1: with |M_j| = 1 no online
// algorithm has competitive ratio better than α²m/(α²+m−1).
func LowerBoundNoReplication(m int, alpha float64) float64 {
	a2 := alpha * alpha
	mf := float64(m)
	return a2 * mf / (a2 + mf - 1)
}

// LowerBoundNoReplicationLimit is the corollary of Theorem 1: the
// m→∞ limit of the lower bound, α².
func LowerBoundNoReplicationLimit(alpha float64) float64 {
	return alpha * alpha
}

// LPTNoChoice is Theorem 2: LPT-No Choice has competitive ratio
// 2α²m/(2α²+m−1).
func LPTNoChoice(m int, alpha float64) float64 {
	a2 := alpha * alpha
	mf := float64(m)
	return 2 * a2 * mf / (2*a2 + mf - 1)
}

// LPTNoRestrictionTheorem is Theorem 3 as stated: LPT-No Restriction
// has competitive ratio 1 + (m−1)/m · α²/2.
func LPTNoRestrictionTheorem(m int, alpha float64) float64 {
	a2 := alpha * alpha
	mf := float64(m)
	return 1 + (mf-1)/mf*a2/2
}

// GrahamLS is Graham's List Scheduling guarantee 2 − 1/m, which holds
// for LPT-No Restriction regardless of α because it is a variant of
// List Scheduling.
func GrahamLS(m int) float64 {
	return 2 - 1/float64(m)
}

// LPTNoRestriction is the effective guarantee of LPT-No Restriction:
// min(Theorem 3, Graham's 2−1/m), as discussed after Theorem 3.
func LPTNoRestriction(m int, alpha float64) float64 {
	return math.Min(LPTNoRestrictionTheorem(m, alpha), GrahamLS(m))
}

// LPTOffline is Graham's offline LPT guarantee 4/3 − 1/(3m) (no
// uncertainty); quoted in the related-work section and used as ρ1 in
// the memory-aware model.
func LPTOffline(m int) float64 {
	return 4.0/3 - 1/(3*float64(m))
}

// LSGroup is Theorem 4: LS-Group with k groups has competitive ratio
// kα²/(α²+k−1) · (1 + (k−1)/m) + (m−k)/m.
func LSGroup(m, k int, alpha float64) float64 {
	a2 := alpha * alpha
	mf, kf := float64(m), float64(k)
	return kf*a2/(a2+kf-1)*(1+(kf-1)/mf) + (mf-kf)/mf
}

// SABOMakespan is Theorem 5 (SABO_Δ): makespan guarantee
// (1+Δ)·α²·ρ1.
func SABOMakespan(alpha, delta, rho1 float64) float64 {
	return (1 + delta) * alpha * alpha * rho1
}

// SABOMemory is Theorem 6 (SABO_Δ): memory guarantee (1+1/Δ)·ρ2.
func SABOMemory(delta, rho2 float64) float64 {
	return (1 + 1/delta) * rho2
}

// ABOMakespan is Theorem 7 (ABO_Δ): makespan guarantee
// 2 − 1/m + Δ·α²·ρ1.
func ABOMakespan(m int, alpha, delta, rho1 float64) float64 {
	return 2 - 1/float64(m) + delta*alpha*alpha*rho1
}

// ABOMemory is Theorem 8 (ABO_Δ): memory guarantee (1+m/Δ)·ρ2.
func ABOMemory(m int, delta, rho2 float64) float64 {
	return (1 + float64(m)/delta) * rho2
}

// Holds reports whether a measured makespan respects a competitive
// ratio rho against upper, any upper bound on the optimum C*: since
// C* ≤ upper, makespan > rho·upper certifies a violation and nothing
// less does. It is the one statement of that check and owns its
// tolerance, which absorbs floating-point rounding on the boundary.
// The memory objective of Theorems 6 and 8 is checked the same way.
func Holds(makespan, rho, upper float64) bool {
	return makespan <= rho*upper*(1+1e-9)
}

// Validate reports an error for parameters outside the model's
// domain. Helper for CLI surfaces.
func Validate(m, k int, alpha float64) error {
	if m < 1 {
		return fmt.Errorf("bounds: m must be >= 1, got %d", m)
	}
	if alpha < 1 {
		return fmt.Errorf("bounds: alpha must be >= 1, got %v", alpha)
	}
	if k != 0 {
		if k < 1 || k > m {
			return fmt.Errorf("bounds: k must be in [1, m], got %d", k)
		}
		if m%k != 0 {
			return fmt.Errorf("bounds: k=%d must divide m=%d", k, m)
		}
	}
	return nil
}
