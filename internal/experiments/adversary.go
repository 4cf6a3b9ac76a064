package experiments

import (
	"fmt"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/fl"
)

// The attack×defense matrix: {client behavior × robust aggregation rule ×
// DP method × heterogeneity scenario} swept through core.Run's seeded
// adversary injection — the fault matrix's hostile sibling. Every cell is
// a deterministic attacked federated run with full participation (K = Kt),
// so the attacker fraction per round is exactly the plan's, and the
// invariants faults_test.go asserts — honest-accuracy floors with zero
// attackers, robust folds bounded near the honest baseline while the plain
// mean breaks under scaled attacks, ε accounting blind to the adversary —
// are the adversarial-robustness claims of the defense literature made
// executable. cmd/tables renders the sweep as the attack×defense table
// ("byzantine").

// attackClients is the cell population: K = Kt = 6, full participation,
// so "byzantine=2:…" means exactly 2 of 6 in every round — below the n/2
// median and the (n−2f−2) Krum breakdown points, above nothing a mean can
// survive.
const attackClients = 6

// attackMatrixAxes returns the swept axes, outermost first: scenario,
// method, defense, behavior. Behaviors escalate from honest through
// sign-flipping and scaled Byzantine updates to total label poisoning;
// defenses range from the undefended mean to the three robust folds, each
// parameterized to tolerate the 2-of-6 attackers.
func attackMatrixAxes() []axis {
	return []axis{
		skewAxis,
		each("method.name", core.MethodNonPrivate, core.MethodFedCDP),
		each("aggregation.rule", fl.AggFedSGD, fl.AggMedian, "trimmed:0.34", "krum:2"),
		append(axis{{}}, each("faults.plan", "byzantine=2:signflip", "byzantine=2:scale:25", "poison=2:1")...),
	}
}

// honestKey names a cell's (scenario, method, defense) plane, whose
// behavior-free cell is its honest baseline.
func honestKey(cfg core.Config) string {
	return cfg.Scenario.String() + "|" + cfg.Method + "|" + cfg.Aggregation
}

// AttackMatrix is the "byzantine" experiment driver: the attack×defense
// table — what each client behavior does to accuracy under each
// aggregation rule, per DP method and heterogeneity scenario, with the
// honest baseline row inline for every defense. It is the fault matrix's
// federation at full participation, so the attacker fraction is exact.
func AttackMatrix(e *config.Experiment) (*Report, error) {
	p := plan{"byzantine", e}
	cells, err := p.matrix(p.smallFederation(attackClients, attackClients, 3, 1), attackMatrixAxes()...)
	if err != nil {
		return nil, err
	}
	honest := map[string]float64{}
	for _, c := range cells {
		if acc, ok := c.FinalAccuracy(); ok && c.Cfg.Faults == "" {
			honest[honestKey(c.Cfg)] = acc
		}
	}
	r := &Report{
		Name:   "byzantine",
		Title:  fmt.Sprintf("Attack × defense: {behavior × aggregation × method × scenario}, %d clients, full participation (cancer benchmark)", attackClients),
		Header: []string{"behavior", "defense", "scenario", "method", "acc", "honest", "delta", "eps"},
		Notes: []string{
			"behaviors are seeded plan clauses: byzantine=n:mode corrupts n clients' updates (signflip negates, scale:λ multiplies), poison=n:rate flips n clients' training labels",
			"defenses parameterized for the 2-of-6 attackers: trimmed:0.34 cuts 2 per tail, krum:2 tolerates f=2",
			"honest is the same (defense, method, scenario) cell with no attackers; delta = acc − honest",
			"ε is identical down every column: privacy accounting is a function of sampling and noise, never of the adversary (asserted in faults_test.go)",
		},
	}
	for _, c := range cells {
		acc, accOK := c.FinalAccuracy()
		base, baseOK := honest[honestKey(c.Cfg)]
		r.Rows = append(r.Rows, []string{
			orNone(c.Cfg.Faults, "none"),
			c.Cfg.Aggregation,
			scenarioLabel(c.Cfg),
			c.Cfg.Method,
			f3ok(acc, accOK),
			f3ok(base, baseOK),
			f3ok(acc-base, accOK && baseOK),
			f4(c.FinalEpsilon()),
		})
	}
	return r, nil
}
