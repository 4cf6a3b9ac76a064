package core

import (
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
)

// tinyScenarioCfg is the smallest end-to-end run: enough to exercise every
// layer (partitioner → client training → sanitization → aggregation →
// accounting) without taking real time.
func tinyScenarioCfg(method string, sc dataset.Scenario) Config {
	return Config{
		Dataset:     "cancer",
		Method:      method,
		K:           6,
		Kt:          3,
		Rounds:      2,
		LocalIters:  3,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 20,
		Scenario:    sc,
	}
}

// TestAllMethodsRunUnderDirichlet is the acceptance gate for the scenario
// engine: every existing method trains end-to-end under the most skewed
// standard partition, dirichlet(α=0.1).
func TestAllMethodsRunUnderDirichlet(t *testing.T) {
	sc := dataset.Scenario{Name: dataset.ScenarioDirichlet, Alpha: 0.1}
	for _, m := range Methods() {
		res, err := Run(tinyScenarioCfg(m, sc))
		if err != nil {
			t.Fatalf("%s under %s: %v", m, sc, err)
		}
		if len(res.Rounds) != 2 {
			t.Fatalf("%s under %s: %d rounds", m, sc, len(res.Rounds))
		}
	}
}

func TestFedCDPRunsUnderEveryScenario(t *testing.T) {
	for _, name := range dataset.ScenarioNames() {
		sc := dataset.Scenario{Name: name}
		res, err := Run(tinyScenarioCfg(MethodFedCDP, sc))
		if err != nil {
			t.Fatalf("fedcdp under %s: %v", sc, err)
		}
		if res.FinalEpsilon() <= 0 {
			t.Fatalf("fedcdp under %s: accounting not annotated", sc)
		}
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	if _, err := Run(tinyScenarioCfg(MethodNonPrivate, dataset.Scenario{Name: "zipf"})); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

// TestIIDScenarioReproducesDefault pins the satellite contract: naming the
// iid scenario explicitly is bit-identical to the pre-scenario-engine
// default, so PR1–PR3 parity oracles and goldens are untouched.
func TestIIDScenarioReproducesDefault(t *testing.T) {
	a, err := Run(tinyScenarioCfg(MethodFedCDP, dataset.Scenario{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyScenarioCfg(MethodFedCDP, dataset.Scenario{Name: dataset.ScenarioIID}))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Final.Params(), b.Final.Params()
	for i := range pa {
		if !pa[i].Equal(pb[i], 0) {
			t.Fatal("iid scenario diverged from the default partition")
		}
	}
}

// TestCheckpointResumePreservesScenario pins that a resumed run continues
// on the checkpointed partition and aggregation rule: 2+2 resumed rounds
// must equal 4 uninterrupted rounds bit-for-bit.
func TestCheckpointResumePreservesScenario(t *testing.T) {
	cfg := tinyScenarioCfg(MethodFedCDP, dataset.Scenario{Name: dataset.ScenarioQuantity})
	cfg.Aggregation = fl.AggWeighted

	full := cfg
	full.Rounds = 4
	want, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	first := cfg
	first.Rounds = 2
	first.PlannedRounds = 4
	res1, err := Run(first)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := CheckpointFrom(res1).Resume(2)
	if err != nil {
		t.Fatal(err)
	}
	pw, pg := want.Final.Params(), res2.Final.Params()
	for i := range pw {
		if !pw[i].Equal(pg[i], 0) {
			t.Fatal("resume diverged from the uninterrupted run: scenario or aggregation dropped at the checkpoint boundary")
		}
	}
}

func TestWeightedAggregationUnderQuantitySkew(t *testing.T) {
	cfg := tinyScenarioCfg(MethodNonPrivate, dataset.Scenario{Name: dataset.ScenarioQuantity})
	cfg.Aggregation = fl.AggWeighted
	if _, err := Run(cfg); err != nil {
		t.Fatalf("weighted aggregation under quantity skew: %v", err)
	}
}
