package fl

import (
	"testing"

	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Tests for in-process fault injection (Config.Plan): both runtimes must
// lose exactly the planned contributions, stay bit-reproducible, and stay
// in lockstep with each other under any plan.

func faultedConfig(t *testing.T, plan string) Config {
	t.Helper()
	cfg := smallConfig(t, sgdStrategy{})
	p, err := simnet.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plan = p.MustBind(cfg.Seed, cfg.Rounds, cfg.K)
	return cfg
}

func TestFaultPlanLosesContributions(t *testing.T) {
	cfg := faultedConfig(t, "drop=0.5")
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, r := range hist.Rounds {
		lost += r.Dropped
		if r.Clients+r.Dropped != cfg.Kt {
			t.Fatalf("round %d: %d folded + %d dropped ≠ cohort %d", r.Round, r.Clients, r.Dropped, cfg.Kt)
		}
	}
	if lost == 0 {
		t.Fatal("drop=0.5 lost nothing across 3 rounds of 4")
	}
}

func TestFaultPlanStreamingBarrierParity(t *testing.T) {
	// The acceptance anchor for in-process injection: under a plan mixing
	// drops, crashes and a restart, the streaming round and the barrier
	// oracle commit identical rounds and bit-identical final parameters.
	history := func(run func(Config) (*History, error)) *History {
		cfg := faultedConfig(t, "drop=0.3,crash=2,restart=1")
		cfg.MinQuorum = 2
		h, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hs, hb := history(Run), history(RunBarrier)
	for i := range hs.Rounds {
		s, b := hs.Rounds[i], hb.Rounds[i]
		if s.Clients != b.Clients || s.Dropped != b.Dropped || s.Committed != b.Committed || s.Accuracy != b.Accuracy {
			t.Fatalf("round %d diverges under faults: streaming %+v vs barrier %+v", i, s, b)
		}
	}
	ps, pb := hs.Final.Params(), hb.Final.Params()
	for i := range ps {
		if !ps[i].Equal(pb[i], 0) {
			t.Fatalf("faulted streaming and barrier params diverge at tensor %d", i)
		}
	}
}

func TestFaultPlanReproducible(t *testing.T) {
	// Same plan, same seed, different parallelism → identical history.
	run := func(par int) *History {
		cfg := faultedConfig(t, "drop=0.3,crash=2,restart=1")
		cfg.Parallelism = par
		h, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(1), run(8)
	for i := range h1.Rounds {
		if h1.Rounds[i].Clients != h2.Rounds[i].Clients || h1.Rounds[i].Accuracy != h2.Rounds[i].Accuracy {
			t.Fatalf("round %d differs across parallelism: %+v vs %+v", i, h1.Rounds[i], h2.Rounds[i])
		}
	}
	p1, p2 := h1.Final.Params(), h2.Final.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 0) {
			t.Fatal("faulted run not reproducible across parallelism")
		}
	}
}

func TestCrashSkipsTrainingButDropDoesNot(t *testing.T) {
	// A crash and a drop are observably identical at the server (the
	// update is lost either way) but differ in what they cost: both remove
	// exactly the planned client from every round's fold.
	cfg := faultedConfig(t, "crash@0:0,crash@0:1,crash@0:2,crash@0:3,crash@0:4,crash@0:5,crash@0:6,crash@0:7,crash@0:8,crash@0:9")
	cfg.MinQuorum = 1
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0 := hist.Rounds[0]
	if r0.Clients != 0 || r0.Committed {
		t.Fatalf("round 0 with every client crashed: %+v", r0)
	}
	if hist.Rounds[1].Clients != cfg.Kt {
		t.Fatalf("round 1 must recover the full cohort, got %d", hist.Rounds[1].Clients)
	}
}

func TestServerRestartKeepsTraining(t *testing.T) {
	// A restart loses all in-memory server state but not the model: the
	// run continues and remains deterministic.
	run := func() *History {
		cfg := faultedConfig(t, "restart@1,restart@2")
		h, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(), run()
	a1, ok1 := h1.FinalAccuracy()
	a2, ok2 := h2.FinalAccuracy()
	if a1 != a2 || ok1 != ok2 {
		t.Fatal("restarted runs must be reproducible")
	}
	p1, p2 := h1.Final.Params(), h2.Final.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 0) {
			t.Fatal("restarted runs must be bit-identical")
		}
	}
	for _, r := range h1.Rounds {
		if r.Clients != smallConfig(t, sgdStrategy{}).Kt {
			t.Fatalf("restart must not lose clients: round %+v", r)
		}
	}
}

// TestWeightedFoldOrderParity pins the weighted-fold invariant the
// fault matrix relies on: the weighted FedAvg fold commits the same
// aggregate as the sequential oracle Σ wₖ(W+ΔWₖ)/Σ wₖ under ANY arrival
// order. With dyadic-rational updates and a power-of-two weight total the
// float arithmetic is exact, so the parity is bit-for-bit; with generic
// floats it holds to summation tolerance.
func TestWeightedFoldOrderParity(t *testing.T) {
	const dim = 6
	newParams := func(vals ...float64) []*tensor.Tensor {
		data := make([]float64, dim)
		copy(data, vals)
		return []*tensor.Tensor{tensor.FromSlice(data, dim)}
	}
	type contrib struct {
		update []*tensor.Tensor
		weight float64
	}
	// Integer-valued updates; weights sum to 8 (a power of two), so every
	// sum and the final 1/Σw scale are exact in float64.
	contribs := []contrib{
		{newParams(1, 2, 3, 4, 5, 6), 1},
		{newParams(-2, 4, 0, 8, -6, 2), 2},
		{newParams(3, -3, 9, 1, 0, 5), 2},
		{newParams(7, 0, -1, 2, 2, 2), 3},
	}
	oracle := func() []float64 {
		base := []float64{10, 20, 30, 40, 50, 60}
		out := make([]float64, dim)
		var wsum float64
		for _, c := range contribs {
			for i := 0; i < dim; i++ {
				out[i] += c.weight * (base[i] + c.update[0].Data()[i])
			}
			wsum += c.weight
		}
		for i := range out {
			out[i] /= wsum
		}
		return out
	}()

	for perm := 0; perm < 12; perm++ {
		order := tensor.Split(99, int64(perm)).Perm(len(contribs))
		params := newParams(10, 20, 30, 40, 50, 60)
		agg := NewWeightedFedAvg()
		agg.Begin(params)
		for _, i := range order {
			agg.FoldWeighted(contribs[i].update, contribs[i].weight)
		}
		agg.Commit(params)
		for i, v := range params[0].Data() {
			if v != oracle[i] {
				t.Fatalf("perm %v: element %d = %v, oracle %v (order-dependent fold)", order, i, v, oracle[i])
			}
		}
	}
}
