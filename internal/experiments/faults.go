package experiments

import (
	"fmt"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
)

// The fault-sensitivity matrix: {scenario × method × fault plan} swept
// through core.Run's in-process fault injection. Every cell is a
// deterministic faulted federated run; the invariants the sweep must
// uphold (quorum honored, ε accounting monotone, fold/drop conservation)
// are asserted by faults_test.go, which CI runs under the race detector —
// the scenario matrix is the simnet layer's standing integration test, and
// cmd/tables renders it as the fault-sensitivity table.

// faultMatrixQuorum is the minimum folded updates per committed round in
// every cell — low enough that moderate plans still commit, high enough
// that heavy plans exercise the below-quorum path.
const faultMatrixQuorum = 2

// FaultCell is one cell of the fault matrix: its coordinates and the
// completed run.
type FaultCell struct {
	Scenario dataset.Scenario
	Method   string
	Plan     string // fault-plan grammar; "" = clean
	Result   *core.Result
}

// faultMatrixAxes returns the swept axes. Plans escalate from clean
// through churn to an aggressive mix of drops, crashes and restarts.
func faultMatrixAxes() (scenarios []dataset.Scenario, methods, plans []string) {
	scenarios = []dataset.Scenario{{}, {Name: "dirichlet", Alpha: 0.1}}
	methods = []string{core.MethodNonPrivate, core.MethodFedCDP, core.MethodFedSDPSrv}
	plans = []string{"", "drop=0.2", "drop=0.2,crash=2,restart=1", "drop=0.5,crash=4,restart=2"}
	return
}

// faultCellConfig is the small-but-real configuration every cell runs:
// large enough that quorum, drops and restarts all have teeth, small
// enough that the full 24-cell sweep stays test-suite fast.
func faultCellConfig(o Options, cell FaultCell) core.Config {
	return core.Config{
		Dataset: "cancer",
		Method:  cell.Method,
		K:       10, Kt: 4,
		Rounds:      o.n(3, 3),
		LocalIters:  2,
		Sigma:       0.06,
		Seed:        o.Seed,
		ValExamples: o.n(60, 40),
		EvalEvery:   1,
		MinQuorum:   faultMatrixQuorum,
		Scenario:    cell.Scenario,
		Faults:      cell.Plan,
		Precision:   o.Precision,
		Codec:       o.Codec,
	}
}

// RunFaultMatrix executes the full sweep and returns every cell with its
// run attached (the structured form faults_test.go asserts invariants
// over; FaultMatrix renders the same cells as a Report).
func RunFaultMatrix(o Options) ([]FaultCell, error) {
	o = o.withDefaults()
	scenarios, methods, plans := faultMatrixAxes()
	var cells []FaultCell
	for _, sc := range scenarios {
		for _, m := range methods {
			for _, plan := range plans {
				cell := FaultCell{Scenario: sc, Method: m, Plan: plan}
				res, err := core.Run(faultCellConfig(o, cell))
				if err != nil {
					return nil, fmt.Errorf("faults %s/%s/%q: %w", sc, m, plan, err)
				}
				cell.Result = res
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// FaultMatrix is the "faults" experiment driver: the fault-sensitivity
// table of the federation runtime — how many updates each plan costs, how
// often rounds miss quorum, and what that does to accuracy and ε, per
// scenario and method.
func FaultMatrix(o Options) (*Report, error) {
	cells, err := RunFaultMatrix(o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:   "faults",
		Title:  "Fault sensitivity: {scenario × method × fault plan} (cancer benchmark)",
		Header: []string{"plan", "scenario", "method", "folded", "dropped", "uncommitted", "acc", "eps"},
		Notes: []string{
			fmt.Sprintf("every round needs ≥ %d folded updates to commit; uncommitted rounds leave the model unchanged", faultMatrixQuorum),
			"plans are deterministic per seed (simnet grammar: drop=p update loss, crash=n mid-round crashes, restart=n server restarts)",
		},
	}
	for _, c := range cells {
		folded, dropped, uncommitted := 0, 0, 0
		for _, rd := range c.Result.Rounds {
			folded += rd.Clients
			dropped += rd.Dropped
			if !rd.Committed {
				uncommitted++
			}
		}
		plan := c.Plan
		if plan == "" {
			plan = "none"
		}
		scenario := c.Scenario.String()
		if c.Scenario.Name == "" {
			scenario = "iid"
		}
		r.Rows = append(r.Rows, []string{
			plan,
			scenario,
			c.Method,
			fmt.Sprint(folded),
			fmt.Sprint(dropped),
			fmt.Sprint(uncommitted),
			f3ok(c.Result.FinalAccuracy()),
			f4(c.Result.FinalEpsilon()),
		})
	}
	return r, nil
}
