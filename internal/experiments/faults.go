package experiments

import (
	"fmt"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
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

// smallFederation is the small-but-real federation the matrix experiments
// share: large enough that quorum, drops and restarts all have teeth, small
// enough that a full sweep stays test-suite fast.
func (p plan) smallFederation(k, kt, rounds, quorum int) []string {
	return []string{
		"data.dataset=cancer",
		kv("training.k", k), kv("training.kt", kt),
		kv("training.rounds", p.n(rounds, rounds)),
		"training.iters=2",
		kv("training.val-examples", p.n(60, 40)),
		"training.eval-every=1",
		kv("runtime.quorum", quorum),
	}
}

// skewAxis sweeps the user's partition against extreme label skew.
var skewAxis = axis{{}, {"data.scenario=dirichlet", "data.alpha=0.1"}}

// faultMatrixAxes returns the swept axes, outermost first: scenario, method,
// plan. Plans escalate from clean through churn to an aggressive mix of
// drops, crashes and restarts.
func faultMatrixAxes() []axis {
	return []axis{
		skewAxis,
		each("method.name", core.MethodNonPrivate, core.MethodFedCDP, core.MethodFedSDPSrv),
		append(axis{{}}, each("faults.plan", "drop=0.2", "drop=0.2,crash=2,restart=1", "drop=0.5,crash=4,restart=2")...),
	}
}

// FaultMatrix is the "faults" experiment driver: the fault-sensitivity
// table of the federation runtime — how many updates each plan costs, how
// often rounds miss quorum, and what that does to accuracy and ε, per
// scenario and method.
func FaultMatrix(e *config.Experiment) (*Report, error) {
	p := plan{"faults", e}
	cells, err := p.matrix(p.smallFederation(10, 4, 3, faultMatrixQuorum), faultMatrixAxes()...)
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
		for _, rd := range c.Rounds {
			folded += rd.Clients
			dropped += rd.Dropped
			if !rd.Committed {
				uncommitted++
			}
		}
		r.Rows = append(r.Rows, []string{
			orNone(c.Cfg.Faults, "none"),
			scenarioLabel(c.Cfg),
			c.Cfg.Method,
			fmt.Sprint(folded),
			fmt.Sprint(dropped),
			fmt.Sprint(uncommitted),
			f3ok(c.FinalAccuracy()),
			f4(c.FinalEpsilon()),
		})
	}
	return r, nil
}
