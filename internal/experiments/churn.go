package experiments

import (
	"fmt"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
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

// ChurnCell is one cell of the churn matrix: its coordinates and the
// completed run.
type ChurnCell struct {
	Scenario dataset.Scenario
	Method   string
	Plan     string // population-plan grammar; "" = closed world
	Result   *core.Result
}

// churnMatrixAxes returns the swept axes. Plans escalate from the closed
// world through one-shot joins/leaves to memoryless churn; the incremental
// scenario exercises the time-varying partitioner under the same schedules.
func churnMatrixAxes() (scenarios []dataset.Scenario, methods, plans []string) {
	scenarios = []dataset.Scenario{{}, {Name: dataset.ScenarioIncremental, Period: 2}}
	methods = []string{core.MethodNonPrivate, core.MethodFedCDP}
	plans = []string{"", "join=4@2", "leave=3@4", "join=3@2,leave=3@4", "churn=0.25"}
	return
}

// churnCellConfig is the configuration every cell runs: the same
// small-but-real federation as the fault matrix, stretched to six rounds so
// arrivals at round 2 and departures at round 4 both have a before and an
// after.
func churnCellConfig(o Options, cell ChurnCell) core.Config {
	return core.Config{
		Dataset: "cancer",
		Method:  cell.Method,
		K:       10, Kt: 4,
		Rounds:      o.n(6, 6),
		LocalIters:  2,
		Sigma:       0.06,
		Seed:        o.Seed,
		ValExamples: o.n(60, 40),
		EvalEvery:   1,
		MinQuorum:   churnMatrixQuorum,
		Scenario:    cell.Scenario,
		Population:  cell.Plan,
		Precision:   o.Precision,
		Codec:       o.Codec,
	}
}

// RunChurnMatrix executes the full sweep and returns every cell with its
// run attached (the structured form churn_test.go asserts invariants over;
// ChurnMatrix renders the same cells as a Report).
func RunChurnMatrix(o Options) ([]ChurnCell, error) {
	o = o.withDefaults()
	scenarios, methods, plans := churnMatrixAxes()
	var cells []ChurnCell
	for _, sc := range scenarios {
		for _, m := range methods {
			for _, plan := range plans {
				cell := ChurnCell{Scenario: sc, Method: m, Plan: plan}
				res, err := core.Run(churnCellConfig(o, cell))
				if err != nil {
					return nil, fmt.Errorf("churn %s/%s/%q: %w", sc, m, plan, err)
				}
				cell.Result = res
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// ChurnMatrix is the "churn" experiment driver: what an open-world
// population does to participation, accuracy and the per-user privacy
// spread — the worst-exposed user's ε against the least-exposed user's,
// per scenario, method and population plan.
func ChurnMatrix(o Options) (*Report, error) {
	cells, err := RunChurnMatrix(o)
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
		for _, rd := range c.Result.Rounds {
			active += rd.Active
			folded += rd.Clients
		}
		plan := c.Plan
		if plan == "" {
			plan = "closed"
		}
		scenario := c.Scenario.String()
		if c.Scenario.Name == "" {
			scenario = "iid"
		}
		epsMin, users := "-", "-"
		if c.Result.Ledger != nil {
			m, _ := c.Result.Ledger.MinEpsilon()
			epsMin = f4(m)
			users = fmt.Sprint(len(c.Result.Ledger.Users()))
		}
		r.Rows = append(r.Rows, []string{
			plan,
			scenario,
			c.Method,
			fmt.Sprint(active),
			fmt.Sprint(folded),
			f3ok(c.Result.FinalAccuracy()),
			f4(c.Result.FinalEpsilon()),
			epsMin,
			users,
		})
	}
	return r, nil
}
