package experiments

import (
	"testing"

	"fedcdp/internal/core"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
)

// The churn matrix's standing invariants: every cell of
// {scenario × method × plan} draws cohorts only from the round's active set,
// charges per-user ledgers for realized participation only, and collapses
// closed worlds to the global accountant.
func TestChurnMatrixInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	_, cells := trained(t, "churn")
	if want := cellCount(churnMatrixAxes()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	for _, res := range cells {
		cfg := res.Cfg
		// Reconstruct the cell's population registry.
		var pop fl.Population
		if cfg.Population == "" {
			pop = fl.PopulationOf(cfg.K, nil)
		} else {
			plan, err := simnet.ParsePlan(cfg.Population)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := plan.Bind(cfg.Seed, cfg.Rounds, cfg.K)
			if err != nil {
				t.Fatal(err)
			}
			pop = fl.PopulationOf(cfg.K, bound)
		}
		dynamic := pop.Dynamic()
		// Ledgers exist exactly for private methods on open-world plans.
		wantLedger := dynamic && cfg.Method != core.MethodNonPrivate
		if (res.Ledger != nil) != wantLedger {
			t.Fatalf("%s/%q: ledger %v, want %v", cfg.Method, cfg.Population, res.Ledger != nil, wantLedger)
		}
		prevEps := 0.0
		for _, rd := range res.Rounds {
			if rd.Active != pop.ActiveCount(rd.Round) {
				t.Fatalf("%s/%q round %d: reported %d active, registry says %d",
					cfg.Method, cfg.Population, rd.Round, rd.Active, pop.ActiveCount(rd.Round))
			}
			if rd.Clients > rd.Active {
				t.Fatalf("%s/%q round %d: folded %d updates from %d active clients",
					cfg.Method, cfg.Population, rd.Round, rd.Clients, rd.Active)
			}
			// ε discipline: committed rounds of a private method spend,
			// uncommitted rounds are exactly flat.
			if cfg.Method == core.MethodNonPrivate {
				if rd.Epsilon != 0 {
					t.Fatalf("%q: non-private round %d spent ε %v", cfg.Population, rd.Round, rd.Epsilon)
				}
			} else if rd.Committed {
				if rd.Epsilon <= prevEps {
					t.Fatalf("%s/%q round %d: committed round did not grow ε (%v → %v)",
						cfg.Method, cfg.Population, rd.Round, prevEps, rd.Epsilon)
				}
			} else if rd.Epsilon != prevEps {
				t.Fatalf("%s/%q round %d: uncommitted round moved ε %v → %v",
					cfg.Method, cfg.Population, rd.Round, prevEps, rd.Epsilon)
			}
			prevEps = rd.Epsilon
		}
		if res.Ledger != nil {
			maxEps, _, _ := res.Ledger.MaxEpsilon()
			if maxEps != res.FinalEpsilon() {
				t.Fatalf("%s/%q: published ε %v is not the ledger max %v", cfg.Method, cfg.Population, res.FinalEpsilon(), maxEps)
			}
		}
	}
}

func TestChurnMatrixReport(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	rep, _ := trained(t, "churn")
	if want := cellCount(churnMatrixAxes()); len(rep.Rows) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), want)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("row %v has %d cells, header %d", row, len(row), len(rep.Header))
		}
		// Open-world private cells report the ledger columns; everything else
		// renders the closed-world dash.
		openWorld := row[0] != "closed"
		private := row[2] != core.MethodNonPrivate
		if openWorld && private {
			if row[7] == "-" || row[8] == "-" {
				t.Fatalf("open-world private row %v missing ledger columns", row)
			}
		} else if row[7] != "-" || row[8] != "-" {
			t.Fatalf("closed-world or non-private row %v reports ledger columns", row)
		}
	}
}
