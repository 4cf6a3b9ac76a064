package fl

import (
	"testing"

	"fedcdp/internal/simnet"
)

// Population is the round-indexed registry every runtime consults; these
// tests pin the two properties the open-world engine lives or dies by:
// static populations reproduce the pre-existing cohort draws verbatim, and
// dynamic cohorts are drawn only from the round's active set with the same
// seeded streams.

func TestPopulationStatic(t *testing.T) {
	for _, plan := range []Plan{nil, simnet.MustParsePlan("drop=0.2").MustBind(42, 3, 10)} {
		pop := PopulationOf(10, plan)
		if pop.Dynamic() {
			t.Fatalf("PopulationOf(10, %T) is dynamic", plan)
		}
		if pop.ActiveCount(0) != 10 || len(pop.ActiveSet(0)) != 10 {
			t.Fatal("static registry must keep all K active")
		}
	}
}

func TestActiveCohortStaticMatchesLegacyDraws(t *testing.T) {
	pop := PopulationOf(100, nil)
	for round := 0; round < 3; round++ {
		legacy := SampleCohort(42, round, 100, 8, false)
		got := ActiveCohort(42, round, pop, 8, "", false)
		if len(got) != len(legacy) {
			t.Fatalf("round %d: cohort size %d, want %d", round, len(got), len(legacy))
		}
		for i := range got {
			if got[i] != legacy[i] {
				t.Fatalf("round %d: static ActiveCohort diverges from SampleCohort at %d", round, i)
			}
		}
		floydLegacy := SampleCohortFloyd(42, round, 100, 8)
		floydGot := ActiveCohort(42, round, pop, 8, SamplerFloyd, false)
		for i := range floydGot {
			if floydGot[i] != floydLegacy[i] {
				t.Fatalf("round %d: static Floyd ActiveCohort diverges at %d", round, i)
			}
		}
	}
}

func TestActiveCohortDrawsOnlyFromActiveSet(t *testing.T) {
	const rounds, k, kt = 6, 10, 4
	plan := simnet.MustParsePlan("join=2@2,leave=3@4,churn=0.2").MustBind(42, rounds, k)
	pop := PopulationOf(k, plan)
	if !pop.Dynamic() {
		t.Fatal("plan with population clauses must be dynamic")
	}
	for _, sampler := range []string{"", SamplerFloyd} {
		for round := 0; round < rounds; round++ {
			active := map[int]bool{}
			for _, id := range pop.ActiveSet(round) {
				active[id] = true
			}
			cohort := ActiveCohort(42, round, pop, kt, sampler, false)
			want := kt
			if len(active) < kt {
				want = len(active)
			}
			if len(cohort) != want {
				t.Fatalf("sampler %q round %d: cohort size %d, want %d (active %d)", sampler, round, len(cohort), want, len(active))
			}
			seen := map[int]bool{}
			for _, id := range cohort {
				if !active[id] {
					t.Fatalf("sampler %q round %d: cohort includes inactive client %d", sampler, round, id)
				}
				if seen[id] {
					t.Fatalf("sampler %q round %d: duplicate client %d without replacement", sampler, round, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestActiveCohortDeterministic(t *testing.T) {
	plan1 := simnet.MustParsePlan("churn=0.4").MustBind(7, 8, 20)
	plan2 := simnet.MustParsePlan("churn=0.4").MustBind(7, 8, 20)
	p1, p2 := PopulationOf(20, plan1), PopulationOf(20, plan2)
	for round := 0; round < 8; round++ {
		a := ActiveCohort(7, round, p1, 6, SamplerFloyd, false)
		b := ActiveCohort(7, round, p2, 6, SamplerFloyd, false)
		if len(a) != len(b) {
			t.Fatalf("round %d: cohort sizes differ across identical populations", round)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: cohorts diverge at position %d", round, i)
			}
		}
	}
}

func TestActiveCohortEmptyActiveSet(t *testing.T) {
	// churn=1.0: every client is away every round.
	plan := simnet.MustParsePlan("churn=1.0").MustBind(42, 3, 5)
	pop := PopulationOf(5, plan)
	if got := ActiveCohort(42, 0, pop, 3, "", false); got != nil {
		t.Fatalf("empty active set drew cohort %v, want nil", got)
	}
	if pop.ActiveCount(0) != 0 {
		t.Fatalf("ActiveCount = %d under churn=1.0, want 0", pop.ActiveCount(0))
	}
}

// TestPopulationStreamingBarrierParity: under joins, departures and
// background churn the streaming round and the barrier oracle agree on every
// round's active count, participation and commit bit, and on the committed
// model bit-for-bit — so the per-user ε ledger, a pure function of
// (History, Population), agrees too.
func TestPopulationStreamingBarrierParity(t *testing.T) {
	history := func(run func(Config) (*History, error)) *History {
		cfg := smallConfig(t, sgdStrategy{})
		cfg.Rounds, cfg.MinQuorum = 6, 1
		cfg.Plan = simnet.MustParsePlan("join=2@2,leave=2@4,churn=0.15").MustBind(cfg.Seed, cfg.Rounds, cfg.K)
		h, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hs, hb := history(Run), history(RunBarrier)
	for i := range hs.Rounds {
		s, b := hs.Rounds[i], hb.Rounds[i]
		if s.Active != b.Active || s.Clients != b.Clients || s.Dropped != b.Dropped || s.Committed != b.Committed {
			t.Fatalf("round %d diverges under churn: streaming %+v vs barrier %+v", i, s, b)
		}
	}
	paramsEqual(t, hs, hb, "churn")
}
