package fl_test

import (
	"fmt"
	"testing"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
)

// TestStreamingRuntimeParity is the acceptance anchor of the streaming
// round at the whole-system level: for each paper method (the real core
// strategies, which is why this file is an external test package), the
// streaming round must reproduce the barrier oracle's seeded History
// exactly — per-round participation and accuracy identical, final
// parameters bit-equal — because client RNG and noise derive from (seed,
// round, client) and folds commit in cohort order. ε is a pure function of
// the History's committed rounds, so it needs no separate comparison.
//
// Each method runs twice: clean with dropout, and under dirichlet(0.1) label
// skew with drops, crashes, a server restart and a quorum (a cell of the
// experiments fault matrix).
func TestStreamingRuntimeParity(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{core.MethodNonPrivate, core.MethodFedCDP, core.MethodDSSGD, core.MethodFedSDPSrv} {
		for _, faulted := range []bool{false, true} {
			method, faulted := method, faulted
			t.Run(fmt.Sprintf("%s/faulted=%v", method, faulted), func(t *testing.T) {
				strat, err := core.Config{Method: method, Clip: 4, Sigma: 0.06, ShareFraction: 0.1}.Strategy()
				if err != nil {
					t.Fatal(err)
				}
				history := func(run func(fl.Config) (*fl.History, error)) *fl.History {
					cfg := fl.Config{
						Data:  dataset.New(spec, 42),
						Model: spec.ModelSpec(),
						K:     10, Kt: 4, Rounds: 3,
						Round:       fl.RoundConfig{BatchSize: spec.BatchSize, LocalIters: 3, LR: spec.LR},
						Strategy:    strat,
						Seed:        42,
						ValExamples: 60,
						Parallelism: 4,
						DropoutRate: 0.25, // parity must hold under churn too
					}
					if faulted {
						cfg.Data = dataset.NewPartitioned(spec, 42, dataset.Dirichlet{Alpha: 0.1})
						cfg.DropoutRate, cfg.MinQuorum = 0, 2
						cfg.Plan = simnet.MustParsePlan("drop=0.2,crash=2,restart=1").MustBind(cfg.Seed, cfg.Rounds, cfg.K)
					}
					h, err := run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				hs, hb := history(fl.Run), history(fl.RunBarrier)
				if len(hs.Rounds) != len(hb.Rounds) {
					t.Fatalf("round counts differ: %d vs %d", len(hs.Rounds), len(hb.Rounds))
				}
				for i := range hs.Rounds {
					s, b := hs.Rounds[i], hb.Rounds[i]
					if s.Clients != b.Clients || s.Dropped != b.Dropped || s.Committed != b.Committed || s.Accuracy != b.Accuracy {
						t.Fatalf("round %d diverges: streaming %+v vs barrier %+v", i, s, b)
					}
				}
				ps, pb := hs.Final.Params(), hb.Final.Params()
				for i := range ps {
					if !ps[i].Equal(pb[i], 0) {
						t.Fatalf("streaming and barrier params diverge at tensor %d", i)
					}
				}
			})
		}
	}
}
