package fl

import (
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

func TestDropoutReducesCohort(t *testing.T) {
	cfg := smallConfig(t, sgdStrategy{})
	cfg.K, cfg.Kt = 10, 10
	cfg.DropoutRate = 0.5
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawDrop := false
	for _, r := range hist.Rounds {
		if r.Clients < 10 {
			sawDrop = true
		}
		if r.Clients > 10 {
			t.Fatalf("round %d has %d clients, cap is 10", r.Round, r.Clients)
		}
	}
	if !sawDrop {
		t.Fatal("dropout 0.5 never removed a client across 3 rounds of 10")
	}
}

func TestDropoutZeroKeepsAll(t *testing.T) {
	cfg := smallConfig(t, sgdStrategy{})
	cfg.DropoutRate = 0
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if r.Clients != cfg.Kt {
			t.Fatalf("round %d lost clients without dropout", r.Round)
		}
	}
}

func TestDropoutFullStillRuns(t *testing.T) {
	// Every client dropping leaves the model unchanged but must not crash.
	cfg := smallConfig(t, sgdStrategy{})
	cfg.DropoutRate = 1
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if r.Clients != 0 {
			t.Fatalf("dropout=1 round %d still had %d clients", r.Round, r.Clients)
		}
	}
}

func TestDropoutDeterministic(t *testing.T) {
	run := func() *History {
		cfg := smallConfig(t, sgdStrategy{})
		cfg.DropoutRate = 0.3
		h, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(), run()
	for i := range h1.Rounds {
		if h1.Rounds[i].Clients != h2.Rounds[i].Clients {
			t.Fatal("dropout must be deterministic per seed")
		}
	}
	p1, p2 := h1.Final.Params(), h2.Final.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 0) {
			t.Fatal("dropout runs must be reproducible")
		}
	}
}

func TestDropoutValidation(t *testing.T) {
	cfg := smallConfig(t, sgdStrategy{})
	cfg.DropoutRate = 1.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("dropout > 1 must be rejected")
	}
	cfg.DropoutRate = -0.1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative dropout must be rejected")
	}
	cfg.DropoutRate = math.NaN()
	if _, err := Run(cfg); err == nil {
		t.Fatal("NaN dropout must be rejected")
	}
}

func TestStartRoundValidation(t *testing.T) {
	cfg := smallConfig(t, sgdStrategy{})
	cfg.StartRound = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative start round must be rejected")
	}
}

func TestStartRoundOffsetsHistory(t *testing.T) {
	cfg := smallConfig(t, sgdStrategy{})
	cfg.StartRound = 5
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Rounds[0].Round != 5 {
		t.Fatalf("first round = %d, want 5", hist.Rounds[0].Round)
	}
	if !hist.Rounds[len(hist.Rounds)-1].Evaluated {
		t.Fatal("final round of an offset run must still be evaluated")
	}
}

// TestDropClientsZeroAlloc pins the hot-path contract: the per-round
// dropout sweep reseeds one long-lived coin instead of deriving a fresh
// Split child per cohort member, so steady-state round setup allocates
// nothing per client.
func TestDropClientsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	cfg := Config{Seed: 42, DropoutRate: 0.3}
	cohort := make([]int, 1000)
	scratch := make([]int, 1000)
	for i := range cohort {
		cohort[i] = i
	}
	coin := tensor.NewRNG(0)
	allocs := testing.AllocsPerRun(20, func() {
		copy(scratch, cohort)
		dropClients(cfg, 3, scratch, coin)
	})
	if allocs != 0 {
		t.Fatalf("dropClients allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// TestDropClientsReseededCoinMatchesSplit pins that the reused coin draws
// the exact stream the original per-client Split children drew, so every
// pre-existing seeded golden keeps its survivor sets.
func TestDropClientsReseededCoinMatchesSplit(t *testing.T) {
	cfg := Config{Seed: 99, DropoutRate: 0.4}
	cohort := []int{3, 1, 4, 1, 5, 9, 2, 6}
	got := dropClients(cfg, 7, append([]int(nil), cohort...), tensor.NewRNG(0))
	var want []int
	for _, id := range cohort {
		if tensor.Split(cfg.Seed, 5, 7, int64(id)).Float64() >= cfg.DropoutRate {
			want = append(want, id)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivors %v, want %v", got, want)
		}
	}
}
