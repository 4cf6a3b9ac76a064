package experiments

import (
	"fmt"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
)

// The churn matrix: {scenario × method × population plan} swept through
// core.Run's open-world population engine. Every cell is a deterministic
// run against a seeded arrival/departure/churn schedule; the invariants the
// sweep must uphold (cohorts drawn only from the active set, per-user ε
// ledgers charging realized participation, static-plan collapse to the
// global accountant) are asserted by churn_test.go. cmd/tables renders it
// as the "churn" experiment.

// churnMatrixQuorum mirrors the fault matrix's commit threshold: small
// enough that a thinned active set still commits, large enough that a
// heavily-departed population can miss quorum.
const churnMatrixQuorum = 2

// churnMatrixAxes returns the swept axes, outermost first: scenario, method,
// population plan. Plans escalate from the closed world through one-shot
// joins/leaves to memoryless churn; the incremental scenario exercises the
// time-varying partitioner under the same schedules.
func churnMatrixAxes() []axis {
	return []axis{
		{{}, {"data.scenario=incremental", "data.period=2"}},
		each("method.name", core.MethodNonPrivate, core.MethodFedCDP),
		append(axis{{}}, each("faults.population", "join=4@2", "leave=3@4", "join=3@2,leave=3@4", "churn=0.25")...),
	}
}

// ChurnMatrix is the "churn" experiment driver: what an open-world
// population does to participation, accuracy and the per-user privacy
// spread — the worst-exposed user's ε against the least-exposed user's,
// per scenario, method and population plan. It is the fault matrix's
// federation stretched to six rounds, so arrivals at round 2 and departures
// at round 4 both have a before and an after.
func ChurnMatrix(e *config.Experiment) (*Report, error) {
	p := plan{"churn", e}
	cells, err := p.matrix(p.smallFederation(10, 4, 6, churnMatrixQuorum), churnMatrixAxes()...)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:   "churn",
		Title:  "Open-world population: {scenario × method × population plan} (cancer benchmark)",
		Header: []string{"plan", "scenario", "method", "active", "folded", "acc", "eps", "eps-min", "users"},
		Notes: []string{
			"population grammar: join=n@r arrivals, leave=n@r departures, churn=p memoryless per-round absence (deterministic per seed)",
			"active sums the per-round active population; cohorts are drawn only from it",
			"eps is the run's user-level spend (max over per-user ledgers); eps-min is the least-exposed participant — the spread is what the closed-world global accountant cannot see",
			"static plans collapse the ledger to the global accountant bit-for-bit (asserted in churn_test.go)",
		},
	}
	for _, c := range cells {
		active, folded := 0, 0
		for _, rd := range c.Rounds {
			active += rd.Active
			folded += rd.Clients
		}
		epsMin, users := "-", "-"
		if c.Ledger != nil {
			m, _ := c.Ledger.MinEpsilon()
			epsMin = f4(m)
			users = fmt.Sprint(len(c.Ledger.Users()))
		}
		r.Rows = append(r.Rows, []string{
			orNone(c.Cfg.Population, "closed"),
			scenarioLabel(c.Cfg),
			c.Cfg.Method,
			fmt.Sprint(active),
			fmt.Sprint(folded),
			f3ok(c.FinalAccuracy()),
			f4(c.FinalEpsilon()),
			epsMin,
			users,
		})
	}
	return r, nil
}
