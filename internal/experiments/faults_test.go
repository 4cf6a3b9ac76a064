package experiments

import (
	"fmt"
	"testing"

	"fedcdp/internal/core"
)

// The scenario-matrix sweep: every {scenario × method × plan} cell must
// uphold the runtime's invariants under fault injection. This test is the simnet layer's standing integration gate and runs under
// -race in CI's sim job.

func TestFaultMatrixInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("24 federated runs")
	}
	_, cells := trained(t, "faults")
	if want := cellCount(faultMatrixAxes()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}

	sawUncommitted, sawDropped := false, false
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s/%q", c.Cfg.Scenario, c.Cfg.Method, c.Cfg.Faults)
		prevEps := 0.0
		for i, r := range c.Rounds {
			// Invariant: quorum honored — committed iff enough folds.
			if r.Committed != (r.Clients >= faultMatrixQuorum) {
				t.Fatalf("%s round %d: committed=%v with %d folds under quorum %d", label, i, r.Committed, r.Clients, faultMatrixQuorum)
			}
			// Invariant: fold/drop conservation over the sampled cohort.
			if r.Clients+r.Dropped != 4 {
				t.Fatalf("%s round %d: %d folded + %d dropped ≠ cohort 4", label, i, r.Clients, r.Dropped)
			}
			// Invariant: ε accounting charges realized participation —
			// strictly growing on committed rounds, flat across uncommitted
			// ones (a round below quorum publishes nothing, so composing
			// its mechanism would overstate the spend; the old unconditional
			// charge reported the clean run's ε for a faulted run).
			switch c.Cfg.Method {
			case core.MethodFedCDP, core.MethodFedSDPSrv:
				if r.Committed && r.Epsilon <= prevEps {
					t.Fatalf("%s round %d: ε %v did not grow past %v on a committed round", label, i, r.Epsilon, prevEps)
				}
				if !r.Committed && r.Epsilon != prevEps {
					t.Fatalf("%s round %d: uncommitted round moved ε %v -> %v", label, i, prevEps, r.Epsilon)
				}
			default:
				if r.Epsilon != 0 {
					t.Fatalf("%s round %d: non-private ε = %v", label, i, r.Epsilon)
				}
			}
			prevEps = r.Epsilon
			if !r.Committed {
				sawUncommitted = true
			}
			if r.Dropped > 0 {
				sawDropped = true
			}
		}
	}

	// The sweep must actually exercise the failure paths it claims to.
	if !sawDropped {
		t.Fatal("no cell ever dropped a contribution")
	}
	if !sawUncommitted {
		t.Fatal("no cell ever missed quorum — the heavy plans are too gentle")
	}
}

func TestFaultMatrixReport(t *testing.T) {
	if testing.Short() {
		t.Skip("24 federated runs")
	}
	rep, _ := trained(t, "faults")
	if rep.Name != "faults" || len(rep.Rows) != 24 {
		t.Fatalf("report %s with %d rows, want faults/24", rep.Name, len(rep.Rows))
	}
	if len(rep.Header) != len(rep.Rows[0]) {
		t.Fatalf("header width %d ≠ row width %d", len(rep.Header), len(rep.Rows[0]))
	}
}

// TestAttackMatrixInvariants sweeps the attack×defense matrix and asserts
// the robustness claims it exists to make executable. Bounds are pinned
// from the seeded run (seed 42): the iid honest baseline is 0.950, the
// scaled Byzantine attack drives the undefended mean to chance (≤ 0.6)
// while every robust fold stays within 0.05 of honest, and sign-flipping /
// poisoning degrade robust folds by at most 0.2. The extreme dirichlet(0.1)
// cells sit at chance for every defense at this scale, so attack bounds are
// asserted on the iid plane; the skewed plane still exercises accounting.
func TestAttackMatrixInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("64 federated runs")
	}
	const honestFloor, breakCeiling, robustSlack = 0.9, 0.6, 0.2

	_, cells := trained(t, "byzantine")
	if want := cellCount(attackMatrixAxes()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}

	honest := map[string]float64{} // scenario|method|defense → honest accuracy
	eps := map[string]float64{}    // scenario|method → ε (must not vary by adversary)
	for _, c := range cells {
		k := c.Cfg.Scenario.String() + "|" + c.Cfg.Method
		if c.Cfg.Faults == "" {
			if acc, ok := c.FinalAccuracy(); ok {
				honest[honestKey(c.Cfg)] = acc
			}
		}
		// Invariant: ε accounting never sees the adversary — identical in
		// every cell of a (scenario, method) plane.
		if prev, ok := eps[k]; ok {
			if c.FinalEpsilon() != prev {
				t.Fatalf("%s: ε %v differs from plane's %v under %q/%s", k, c.FinalEpsilon(), prev, c.Cfg.Faults, c.Cfg.Aggregation)
			}
		} else {
			eps[k] = c.FinalEpsilon()
		}
		if c.Cfg.Method == core.MethodNonPrivate && c.FinalEpsilon() != 0 {
			t.Fatalf("non-private cell %q/%s reported ε %v", c.Cfg.Faults, c.Cfg.Aggregation, c.FinalEpsilon())
		}
	}

	for _, c := range cells {
		if c.Cfg.Scenario.Name != "" {
			continue // attack bounds are pinned on the iid plane
		}
		behavior, defense := c.Cfg.Faults, c.Cfg.Aggregation
		acc, _ := c.FinalAccuracy()
		base := honest[honestKey(c.Cfg)]
		label := fmt.Sprintf("iid/%s %q/%s", c.Cfg.Method, behavior, defense)
		switch {
		case behavior == "":
			// Invariant: with zero attackers every defense trains normally.
			if acc < honestFloor {
				t.Fatalf("%s: honest accuracy %.3f below floor %.2f", label, acc, honestFloor)
			}
		case defense == "fedsgd" && behavior == "byzantine=2:scale:25":
			// Invariant: the scaled attack demonstrably breaks the
			// undefended mean — this is the row that justifies the axis.
			if acc > breakCeiling {
				t.Fatalf("%s: undefended mean survived at %.3f (≤ %.2f expected)", label, acc, breakCeiling)
			}
		case defense != "fedsgd":
			// Invariant: every robust fold degrades boundedly under every
			// attack behavior.
			if acc < base-robustSlack {
				t.Fatalf("%s: robust accuracy %.3f fell more than %.2f below honest %.3f", label, acc, robustSlack, base)
			}
		}
	}
}

func TestAttackMatrixReport(t *testing.T) {
	if testing.Short() {
		t.Skip("64 federated runs")
	}
	rep, _ := trained(t, "byzantine")
	if rep.Name != "byzantine" || len(rep.Rows) != 64 {
		t.Fatalf("report %s with %d rows, want byzantine/64", rep.Name, len(rep.Rows))
	}
	if len(rep.Header) != len(rep.Rows[0]) {
		t.Fatalf("header width %d ≠ row width %d", len(rep.Header), len(rep.Rows[0]))
	}
	// Honest rows carry delta 0 against themselves.
	for _, row := range rep.Rows {
		if row[0] == "none" && row[6] != "0.000" {
			t.Fatalf("honest row delta %q, want 0.000", row[6])
		}
	}
}
