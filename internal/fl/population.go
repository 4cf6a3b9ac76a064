package fl

// Open-world client population. Production federations never see a fixed K
// clients: devices arrive mid-horizon, depart, and return. The Population
// type is the round-indexed registry every runtime consults — cohort
// sampling draws only from the round's active set, so the in-process,
// RPC-deployment and mux runtimes all agree on who exists in a
// round without sharing any state beyond the seed. Activity is a pure
// function of (seed, clientID, round), provided by the Plan's
// join/leave/churn clauses (see simnet.ParsePlan), so open-world runs
// replay bit-identically at any GOMAXPROCS.

// Population is the round-indexed client registry: K registered client ids
// and, when the plan is dynamic, the per-round active subset. The zero
// Population (and any with a nil/static plan) is the closed world every
// pre-existing run assumed — all K clients active in every round.
type Population struct {
	K    int
	plan Plan
}

// PopulationOf builds the registry for a K-client run governed by plan
// (typically Config.Plan); plans without population clauses — and nil —
// yield the static registry.
func PopulationOf(k int, plan Plan) Population {
	return Population{K: k, plan: plan}
}

// Dynamic reports whether the active set can differ from the registry.
func (p Population) Dynamic() bool {
	return p.plan != nil && p.plan.PopulationDynamic()
}

// Active reports whether client id participates in the population at round.
func (p Population) Active(round, id int) bool {
	return !p.Dynamic() || p.plan.ClientActive(round, id)
}

// ActiveSet returns the round's active client ids in ascending order; the
// static registry returns [0, K).
func (p Population) ActiveSet(round int) []int {
	ids := make([]int, 0, p.K)
	for id := 0; id < p.K; id++ {
		if p.Active(round, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// ActiveCount returns the size of the round's active set.
func (p Population) ActiveCount(round int) int {
	if !p.Dynamic() {
		return p.K
	}
	n := 0
	for id := 0; id < p.K; id++ {
		if p.plan.ClientActive(round, id) {
			n++
		}
	}
	return n
}

// ActiveCohort returns the participating client ids fl.Run draws for a
// round under an open-world population — exposed so out-of-process drivers
// (the simnet deployment harness, the mux scheduler, ops tooling) agree
// with the in-process simulator on round membership.
//
// Static populations take the pre-existing draws verbatim (SampleCohort /
// SampleCohortFloyd over [0, K)), so every seeded closed-world run stays
// byte-identical. Dynamic populations materialize the round's active set
// and draw positions into it with the same seeded streams; kt caps at the
// active count, and an empty active set yields an empty cohort (the round
// trains nobody and cannot meet a positive quorum).
func ActiveCohort(seed int64, round int, pop Population, kt int, sampler string, withReplacement bool) []int {
	cohort, _, _ := ActiveCohortCount(seed, round, pop, kt, sampler, withReplacement)
	return cohort
}

// ActiveCohortCount is ActiveCohort plus the size of the round's active set
// (RoundStats.Active) and, on a dynamic population, its ids (nil on a
// static one), all from one walk over the population: a dynamic plan's
// ClientActive coins are the cost of a round at large K, so the round loop
// materializes the active set once for the draw, the count and the ledger.
func ActiveCohortCount(seed int64, round int, pop Population, kt int, sampler string, withReplacement bool) (cohort []int, active int, ids []int) {
	if !pop.Dynamic() {
		if sampler == SamplerFloyd && !withReplacement {
			return SampleCohortFloyd(seed, round, pop.K, kt), pop.K, nil
		}
		return SampleCohort(seed, round, pop.K, kt, withReplacement), pop.K, nil
	}
	ids = pop.ActiveSet(round)
	n := len(ids)
	if kt > n {
		kt = n
	}
	if kt == 0 {
		return nil, n, ids
	}
	var pos []int
	if sampler == SamplerFloyd && !withReplacement {
		pos = SampleCohortFloyd(seed, round, n, kt)
	} else {
		pos = SampleCohort(seed, round, n, kt, withReplacement)
	}
	cohort = make([]int, len(pos))
	for i, at := range pos {
		cohort[i] = ids[at]
	}
	return cohort, n, ids
}
