package experiments

import (
	"fmt"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
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

// AttackCell is one cell of the attack×defense matrix: its coordinates
// and the completed run.
type AttackCell struct {
	Behavior string // adversary plan clauses; "" = all-honest
	Defense  string // aggregation rule the server folds under
	Method   string
	Scenario dataset.Scenario
	Result   *core.Result
}

// attackMatrixAxes returns the swept axes. Behaviors escalate from honest
// through sign-flipping and scaled Byzantine updates to total label
// poisoning; defenses range from the undefended mean to the three robust
// folds, each parameterized to tolerate the 2-of-6 attackers.
func attackMatrixAxes() (behaviors, defenses, methods []string, scenarios []dataset.Scenario) {
	behaviors = []string{"", "byzantine=2:signflip", "byzantine=2:scale:25", "poison=2:1"}
	defenses = []string{fl.AggFedSGD, fl.AggMedian, "trimmed:0.34", "krum:2"}
	methods = []string{core.MethodNonPrivate, core.MethodFedCDP}
	scenarios = []dataset.Scenario{{}, {Name: "dirichlet", Alpha: 0.1}}
	return
}

// attackCellConfig is the configuration every cell runs: full
// participation so the attacker fraction is exact, and the same
// small-but-real cancer benchmark the fault matrix uses.
func attackCellConfig(o Options, cell AttackCell) core.Config {
	return core.Config{
		Dataset: "cancer",
		Method:  cell.Method,
		K:       attackClients, Kt: attackClients,
		Rounds:      o.n(3, 3),
		LocalIters:  2,
		Sigma:       0.06,
		Seed:        o.Seed,
		ValExamples: o.n(60, 40),
		EvalEvery:   1,
		MinQuorum:   1,
		Scenario:    cell.Scenario,
		Faults:      cell.Behavior,
		Aggregation: cell.Defense,
		Precision:   o.Precision,
		Codec:       o.Codec,
	}
}

// RunAttackMatrix executes the full sweep and returns every cell with its
// run attached (the structured form faults_test.go asserts invariants
// over; AttackMatrix renders the same cells as a Report).
func RunAttackMatrix(o Options) ([]AttackCell, error) {
	o = o.withDefaults()
	behaviors, defenses, methods, scenarios := attackMatrixAxes()
	var cells []AttackCell
	for _, sc := range scenarios {
		for _, m := range methods {
			for _, def := range defenses {
				for _, beh := range behaviors {
					cell := AttackCell{Behavior: beh, Defense: def, Method: m, Scenario: sc}
					res, err := core.Run(attackCellConfig(o, cell))
					if err != nil {
						return nil, fmt.Errorf("byzantine %q/%s/%s/%s: %w", beh, def, m, sc, err)
					}
					cell.Result = res
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, nil
}

// AttackMatrix is the "byzantine" experiment driver: the attack×defense
// table — what each client behavior does to accuracy under each
// aggregation rule, per DP method and heterogeneity scenario, with the
// honest baseline row inline for every defense.
func AttackMatrix(o Options) (*Report, error) {
	cells, err := RunAttackMatrix(o)
	if err != nil {
		return nil, err
	}
	// Honest baseline per (scenario, method, defense): the behavior="" cell.
	honest := map[string]float64{}
	key := func(c AttackCell) string {
		return c.Scenario.String() + "|" + c.Method + "|" + c.Defense
	}
	for _, c := range cells {
		if c.Behavior == "" {
			if acc, ok := c.Result.FinalAccuracy(); ok {
				honest[key(c)] = acc
			}
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
		behavior := c.Behavior
		if behavior == "" {
			behavior = "none"
		}
		scenario := c.Scenario.String()
		if c.Scenario.Name == "" {
			scenario = "iid"
		}
		acc, accOK := c.Result.FinalAccuracy()
		base, baseOK := honest[key(c)]
		r.Rows = append(r.Rows, []string{
			behavior,
			c.Defense,
			scenario,
			c.Method,
			f3ok(acc, accOK),
			f3ok(base, baseOK),
			f3ok(acc-base, accOK && baseOK),
			f4(c.Result.FinalEpsilon()),
		})
	}
	return r, nil
}
