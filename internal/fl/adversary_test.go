package fl

import (
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/simnet"
)

// Tests for the adversarial-client axis in the in-process runtimes: a bound
// plan's Byzantine and poisoning behaviors must corrupt identically in the
// barrier and streaming runtimes (bit-for-bit parity), reproduce across
// parallelism, and actually move the committed parameters.

func adversaryConfig(t *testing.T, plan, agg string) Config {
	t.Helper()
	cfg := smallConfig(t, sgdStrategy{})
	cfg.Kt = 6
	cfg.Aggregation = agg
	if plan != "" {
		cfg.Plan = simnet.MustParsePlan(plan).MustBind(cfg.Seed, cfg.Rounds, cfg.K)
	}
	return cfg
}

func runAdversary(t *testing.T, cfg Config) *History {
	t.Helper()
	h, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func paramsEqual(t *testing.T, a, b *History, what string) {
	t.Helper()
	pa, pb := a.Final.Params(), b.Final.Params()
	for i := range pa {
		if !pa[i].Equal(pb[i], 0) {
			t.Fatalf("%s: params diverge at tensor %d", what, i)
		}
	}
}

func TestAdversaryStreamingBarrierParity(t *testing.T) {
	// The corruption point is identical in both runtimes (after
	// ClientUpdate, before the drop coin), so attack runs must stay in
	// bit-for-bit lockstep exactly like fault runs do.
	for _, tc := range []struct{ plan, agg string }{
		{"byzantine=2:signflip", AggMedian},
		{"byzantine=2:scale:25", "trimmed:0.34"},
		{"byzantine=1:gauss:0.5", "krum:2"},
		{"poison=2:1", AggMedian},
		{"byzantine=2:signflip,drop=0.2", AggFedSGD},
	} {
		hs := runAdversary(t, adversaryConfig(t, tc.plan, tc.agg))
		hb, err := RunBarrier(adversaryConfig(t, tc.plan, tc.agg))
		if err != nil {
			t.Fatal(err)
		}
		for i := range hs.Rounds {
			s, b := hs.Rounds[i], hb.Rounds[i]
			if s.Clients != b.Clients || s.Dropped != b.Dropped || s.Accuracy != b.Accuracy {
				t.Fatalf("%s/%s round %d diverges: streaming %+v vs barrier %+v", tc.plan, tc.agg, i, s, b)
			}
		}
		paramsEqual(t, hs, hb, tc.plan+"/"+tc.agg)
	}
}

func TestAdversaryRunReproducible(t *testing.T) {
	// Attacker identities and draws are pure functions of the plan seed:
	// the same attacked run at different parallelism is bit-identical.
	run := func(par int) *History {
		cfg := adversaryConfig(t, "byzantine=2:gauss:0.5,poison=2:0.8", AggMedian)
		cfg.Parallelism = par
		return runAdversary(t, cfg)
	}
	h1, h2 := run(1), run(8)
	for i := range h1.Rounds {
		if h1.Rounds[i].Accuracy != h2.Rounds[i].Accuracy {
			t.Fatalf("round %d accuracy differs across parallelism", i)
		}
	}
	paramsEqual(t, h1, h2, "parallelism")
}

func TestByzantineCorruptionMovesParams(t *testing.T) {
	// Under the plain mean fold a sign-flipping attacker must actually
	// change the committed parameters relative to the honest run — the
	// corruption is live, not silently skipped.
	honest := runAdversary(t, adversaryConfig(t, "", AggFedSGD))
	attacked := runAdversary(t, adversaryConfig(t, "byzantine=2:signflip", AggFedSGD))
	pa, pb := honest.Final.Params(), attacked.Final.Params()
	same := true
	for i := range pa {
		if !pa[i].Equal(pb[i], 0) {
			same = false
		}
	}
	if same {
		t.Fatal("byzantine=2:signflip left the FedSGD commit untouched")
	}
}

func TestPoisonedShardFlipsLabels(t *testing.T) {
	// AdversaryShard hands a poisoned client a flipped-label view of its
	// own shard — deterministically, surviving Repartition — and leaves
	// honest clients' shards untouched.
	plan := simnet.MustParsePlan("poison=3:1").MustBind(7, 2, 10)
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 7)
	poisoned := 0
	for id := 0; id < 10; id++ {
		base, adv := ds.Client(id), AdversaryShard(plan, id, ds.Client(id))
		flipped := 0
		for i := 0; i < base.Len(); i++ {
			_, y0 := base.Get(i)
			_, y1 := adv.Get(i)
			if y0 != y1 {
				flipped++
			}
			_, y2 := adv.Get(i)
			if y1 != y2 {
				t.Fatalf("client %d example %d label not deterministic", id, i)
			}
		}
		if plan.PoisonedClient(id) {
			poisoned++
			if flipped != base.Len() {
				t.Fatalf("poisoned client %d at rate 1 flipped %d/%d labels", id, flipped, base.Len())
			}
		} else if flipped != 0 {
			t.Fatalf("honest client %d had %d labels flipped", id, flipped)
		}
	}
	if poisoned != 3 {
		t.Fatalf("%d poisoned clients, want 3", poisoned)
	}
}

func TestZeroAttackersIsHonestRun(t *testing.T) {
	// A plan with only benign clauses must not perturb training: the
	// adversary hooks are no-ops when nobody is an attacker.
	honest := runAdversary(t, adversaryConfig(t, "", AggFedSGD))
	planned := runAdversary(t, adversaryConfig(t, "latency=1ms", AggFedSGD))
	paramsEqual(t, honest, planned, "benign plan")
}
