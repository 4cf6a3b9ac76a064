package core

import (
	"testing"

	"fedcdp/internal/fl"
)

// TestStreamingQuorumThroughCore exercises the deadline-free quorum path
// through core.Run's config surface: full dropout with a positive quorum
// must freeze the model on every round.
func TestStreamingQuorumThroughCore(t *testing.T) {
	res, err := Run(Config{
		Dataset: "cancer",
		Method:  MethodNonPrivate,
		K:       8, Kt: 4, Rounds: 2,
		LocalIters:  2,
		Seed:        7,
		ValExamples: 40,
		DropoutRate: 1,
		MinQuorum:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.Committed {
			t.Fatalf("round %d committed with zero folds under quorum 1", r.Round)
		}
		if r.Clients != 0 {
			t.Fatalf("round %d folded %d clients under full dropout", r.Round, r.Clients)
		}
	}
}

// TestSparseHints pins which strategies advertise sparse wire updates.
func TestSparseHints(t *testing.T) {
	cases := []struct {
		name string
		s    fl.Strategy
		want bool
	}{
		{"dssgd-0.1", DSSGD{ShareFraction: 0.1}, true},
		{"dssgd-0.9", DSSGD{ShareFraction: 0.9}, false},
		{"compress-0.9", Compressed{Inner: NonPrivate{}, PruneRatio: 0.9}, true},
		{"compress-0.2", Compressed{Inner: NonPrivate{}, PruneRatio: 0.2}, false},
		{"compress-over-dssgd", Compressed{Inner: DSSGD{ShareFraction: 0.1}, PruneRatio: 0.2}, true},
	}
	for _, tc := range cases {
		sc, ok := tc.s.(fl.SparseCapable)
		if !ok {
			t.Fatalf("%s does not implement SparseCapable", tc.name)
		}
		if got := sc.SparseUpdates(); got != tc.want {
			t.Errorf("%s: SparseUpdates() = %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, ok := fl.Strategy(NonPrivate{}).(fl.SparseCapable); ok {
		t.Error("NonPrivate must not advertise sparse updates")
	}
}
