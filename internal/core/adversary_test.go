package core

import (
	"runtime"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
)

// Whole-system acceptance tests for the adversarial-client axis: the
// issue's pinned attack cell — byzantine=2:signflip attackers, the
// coordinate-median defense, Fed-CDP noise and dirichlet(0.1) label skew —
// must be bit-reproducible (identical final-model FNV digest and ε) across
// invocations, Parallelism, and GOMAXPROCS, in-process and over the
// simnet RPC fabric.

// attackAcceptanceConfig is the pinned attack×defense acceptance cell.
func attackAcceptanceConfig() Config {
	return Config{
		Dataset: "cancer",
		Method:  MethodFedCDP,
		K:       12, Kt: 6, Rounds: 4,
		LocalIters:  3,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 60,
		EvalEvery:   1,
		Scenario:    dataset.Scenario{Name: "dirichlet", Alpha: 0.1},
		Faults:      "byzantine=2:signflip",
		Aggregation: fl.AggMedian,
		MinQuorum:   1,
	}
}

func TestAttackedRunBitReproducible(t *testing.T) {
	type fingerprint struct {
		digest  uint64
		epsilon float64
		acc     []float64
	}
	take := func(par, maxprocs int) fingerprint {
		t.Helper()
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		cfg := attackAcceptanceConfig()
		cfg.Parallelism = par
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint{digest: digestTensors(res.Final.Params()), epsilon: res.FinalEpsilon()}
		for _, r := range res.Rounds {
			fp.acc = append(fp.acc, r.Accuracy)
		}
		return fp
	}

	base := take(0, 0)
	for _, alt := range []fingerprint{take(0, 0), take(1, 0), take(8, 0), take(4, 2)} {
		if alt.digest != base.digest {
			t.Fatalf("attacked-run digest %x differs from %x across scheduling settings", alt.digest, base.digest)
		}
		if alt.epsilon != base.epsilon {
			t.Fatalf("attacked-run ε %v differs from %v", alt.epsilon, base.epsilon)
		}
		for i := range base.acc {
			if alt.acc[i] != base.acc[i] {
				t.Fatalf("round %d accuracy differs across scheduling settings", i)
			}
		}
	}
	if base.epsilon <= 0 {
		t.Fatalf("Fed-CDP attacked run must still account privacy, ε = %v", base.epsilon)
	}
}

// TestAttackEpsilonIndependentOfAdversary pins the accounting invariant the
// attack matrix asserts per cell: ε is a function of the sampling schedule
// and noise, never of who attacked or how the server defended.
func TestAttackEpsilonIndependentOfAdversary(t *testing.T) {
	eps := func(faults, agg string) float64 {
		cfg := attackAcceptanceConfig()
		cfg.Faults = faults
		cfg.Aggregation = agg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalEpsilon()
	}
	base := eps("", "")
	for _, tc := range []struct{ faults, agg string }{
		{"byzantine=2:signflip", fl.AggMedian},
		{"byzantine=2:scale:25", "trimmed:0.34"},
		{"poison=2:1", "krum:2"},
	} {
		if got := eps(tc.faults, tc.agg); got != base {
			t.Fatalf("ε under %s/%s = %v, honest %v — accounting leaked the adversary", tc.faults, tc.agg, got, base)
		}
	}
}

// TestRunSimnetByzantineReproducible deploys the pinned attack cell over
// the RPC fabric, where folds happen in arrival order: robust statistics
// are pure functions of the update multiset, so even this path is
// bit-reproducible — and it must agree with itself run over run.
func TestRunSimnetByzantineReproducible(t *testing.T) {
	take := func() (uint64, []int) {
		cfg := simnetBaseConfig()
		cfg.Faults = "byzantine=2:signflip,poison=1:0.5"
		cfg.Aggregation = fl.AggMedian
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var clients []int
		for _, r := range res.Rounds {
			clients = append(clients, r.Clients)
		}
		return digestTensors(res.Final.Params()), clients
	}
	d1, c1 := take()
	d2, c2 := take()
	if d1 != d2 {
		t.Fatalf("simnet byzantine digests differ: %x vs %x", d1, d2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("round %d folded %d vs %d", i, c1[i], c2[i])
		}
	}
}

// TestRobustAggRejectedOnTree pins the topology guard at the core surface:
// a sharded simnet deployment refuses robust rules up front.
func TestRobustAggRejectedOnTree(t *testing.T) {
	cfg := simnetBaseConfig()
	cfg.Shards = 2
	cfg.Aggregation = fl.AggMedian
	if _, err := RunSimnet(cfg); err == nil {
		t.Fatal("robust rule on the sharded tree must be a configuration error")
	}
	cfg.Aggregation = "krum:1"
	if _, err := RunSimnet(cfg); err == nil {
		t.Fatal("krum on the sharded tree must be a configuration error")
	}
}

// TestOverfullAttackBudgetRejected pins loud Bind failure at the core
// surface: a plan demanding more attackers than the population errors
// instead of silently truncating.
func TestOverfullAttackBudgetRejected(t *testing.T) {
	cfg := simnetBaseConfig()
	cfg.Faults = "byzantine=100:signflip"
	if _, err := RunSimnet(cfg); err == nil {
		t.Fatal("overfull byzantine budget must fail at bind")
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("overfull byzantine budget must fail at bind (in-process)")
	}
}
