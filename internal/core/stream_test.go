package core

import "testing"

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
