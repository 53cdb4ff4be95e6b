package bounds

import (
	"testing"
)

func TestReplicasToBeatNoReplicationPaperClaim(t *testing.T) {
	// Paper, Figure 3 discussion (α=2, m=210): "LS-Group is able to
	// get a better approximation using less than 50 replications than
	// can be guaranteed by deploying data on a single machine."
	r, ok := ReplicasToBeatNoReplication(210, 2)
	if !ok {
		t.Fatal("no crossover found at alpha=2")
	}
	if r >= 50 {
		t.Fatalf("crossover at %d replicas, paper says < 50", r)
	}
	if r <= 1 {
		t.Fatalf("crossover at %d replicas is implausibly small", r)
	}
}

func TestReplicasToBeatNoReplicationSmallAlpha(t *testing.T) {
	// α=1.1: the gap between LPT-No Choice and the lower bound is
	// large; even full replication's guarantee (≈ 2 − 1/m) exceeds the
	// lower bound (≈ 1.2), so no crossover exists.
	if r, ok := ReplicasToBeatNoReplication(210, 1.1); ok {
		t.Fatalf("unexpected crossover at %d replicas for alpha=1.1", r)
	}
}

func TestMinReplicasForRatioMonotone(t *testing.T) {
	// A looser target never needs more replicas.
	prev := 210 + 1
	for _, target := range []float64{3.0, 3.5, 4.5, 6.0, 7.5} {
		r, ok := MinReplicasForRatio(210, 2, target)
		if !ok {
			continue
		}
		if r > prev {
			t.Fatalf("target %v needs %d replicas, looser than previous %d", target, r, prev)
		}
		prev = r
	}
}

func TestMinReplicasForRatioUnreachable(t *testing.T) {
	if _, ok := MinReplicasForRatio(210, 2, 1.0); ok {
		t.Fatal("ratio 1.0 reported reachable")
	}
}

func TestMinReplicasForRatioTrivial(t *testing.T) {
	// Target above the 1-replica guarantee: one replica suffices.
	loose := LSGroup(210, 210, 2) + 1
	r, ok := MinReplicasForRatio(210, 2, loose)
	if !ok || r != 1 {
		t.Fatalf("got (%d, %v), want (1, true)", r, ok)
	}
}
