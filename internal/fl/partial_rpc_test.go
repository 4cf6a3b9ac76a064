package fl

import (
	"testing"

	"fedcdp/internal/tensor"
)

// An edge that loses the root's ack re-sends its partial. The root's
// client-id dedup (the shard index rides in ClientID) must fold the
// shard's clients exactly once and acknowledge the re-send as a duplicate
// that consumes no session slot.
func TestSendPartialDuplicateDeduped(t *testing.T) {
	g := tensor.NewRNG(5)
	params, updates, weights := randomRound(g, 4)
	cfg := RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 1}

	// Two edges: shard 0 folds clients 0-1, shard 1 folds clients 2-3.
	mkPartial := func(shard int, clients []int) *Partial {
		edge, err := NewExact(AggWeighted)
		if err != nil {
			t.Fatal(err)
		}
		edge.Begin(tensor.CloneAll(params))
		for _, c := range clients {
			edge.FoldClient(c, updates[c], weights[c])
		}
		return edge.TakePartial()
	}
	p0 := mkPartial(0, []int{0, 1})
	p1 := mkPartial(1, []int{2, 3})

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	root, err := NewExact(AggWeighted)
	if err != nil {
		t.Fatal(err)
	}

	rootParams := tensor.CloneAll(params)
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, rerr := srv.StreamRound(0, rootParams, cfg, root, RoundOptions{
			Clients: 2, MinQuorum: 1,
		})
		done <- outcome{res, rerr}
	}()

	opt := ClientOptions{}
	if err := SendPartial(srv.Addr(), 0, 0, p0, opt); err != nil {
		t.Fatal(err)
	}
	// The re-send: same shard id, same payload — must be acked as a
	// duplicate while the round is still waiting on shard 1.
	if err := SendPartial(srv.Addr(), 0, 0, p0, opt); err != nil {
		t.Fatalf("duplicate partial not acknowledged: %v", err)
	}
	if err := SendPartial(srv.Addr(), 1, 0, p1, opt); err != nil {
		t.Fatal(err)
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Folded != 2 || o.res.Duplicates != 1 || !o.res.Committed {
		t.Fatalf("round result %+v, want 2 folded, 1 duplicate, committed", o.res)
	}
	if got := root.Count(); got != 4 {
		t.Fatalf("root folded %d clients, want 4 (duplicate partial double-counted?)", got)
	}

	// The deduped tree commit must equal the flat exact fold of all four
	// clients.
	flat, err := NewExact(AggWeighted)
	if err != nil {
		t.Fatal(err)
	}
	flatParams := tensor.CloneAll(params)
	flat.Begin(flatParams)
	for c := 0; c < 4; c++ {
		flat.FoldClient(c, updates[c], weights[c])
	}
	flat.Commit(flatParams)
	if !sameBits(rootParams, flatParams) {
		t.Fatal("deduped tree commit differs from flat exact fold")
	}
}
