package bounds

// MinReplicasForRatio returns the smallest replication degree m/k
// (over divisors k of m) whose LS-Group guarantee is at most target,
// and ok=false if even full replication (k=1) does not reach it.
func MinReplicasForRatio(m int, alpha, target float64) (int, bool) {
	divisors := Divisors(m)
	// Scan k from largest (1 replica) to smallest (m replicas): the
	// guarantee decreases as replication grows (see Theorem 4 tests),
	// so the first k meeting the target gives the fewest replicas.
	for i := len(divisors) - 1; i >= 0; i-- {
		k := divisors[i]
		if LSGroup(m, k, alpha) <= target {
			return m / k, true
		}
	}
	return 0, false
}

// ReplicasToBeatNoReplication returns the smallest replication degree
// whose LS-Group guarantee beats the *best possible* no-replication
// algorithm (the Theorem 1 lower bound) — the paper's α=2 observation
// that fewer than 50 replicas already outperform anything achievable
// with |M_j| = 1. ok=false when no replication level does (small α).
func ReplicasToBeatNoReplication(m int, alpha float64) (int, bool) {
	return MinReplicasForRatio(m, alpha, LowerBoundNoReplication(m, alpha)-1e-12)
}
