package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

const faultAcceptance = "../../configs/fault-acceptance.yaml"

// serve runs a library round server for the experiment; rounds reports how
// many it committed at full cohort once it stops (a round error stops it).
func serve(t *testing.T, exp *config.Experiment) (addr string, rounds <-chan int) {
	t.Helper()
	spec, _ := dataset.Get(exp.Data.Dataset)
	cfg := exp.CoreConfig().WithDefaults(spec)
	srv, err := fl.NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	model := nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
	agg, err := fl.NewAggregatorFor(cfg.Aggregation, cfg.Shards, cfg.TreeFanout, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	committed := make(chan int, 1)
	go func() {
		n := 0
		for r := 0; r < cfg.Rounds; r++ {
			res, err := srv.StreamRound(r, model.Params(), fl.RoundConfig{
				BatchSize: cfg.BatchSize, LocalIters: cfg.LocalIters, LR: cfg.LR,
				TotalRounds: cfg.Rounds, Scenario: cfg.Scenario, ConfigDigest: cfg.ConfigDigest,
			}, agg, fl.RoundOptions{Clients: cfg.Kt})
			if err != nil {
				break
			}
			if res.Committed && res.Folded == cfg.Kt {
				n++
			}
		}
		committed <- n
	}()
	return srv.Addr(), committed
}

// Given only the file and transport flags, kt clients see every one of the
// file's training.rounds rounds through — the horizon is the experiment's,
// not a private flag default.
func TestParticipatesForTrainingRounds(t *testing.T) {
	exp, err := config.Load(faultAcceptance)
	if err != nil {
		t.Fatal(err)
	}
	addr, rounds := serve(t, exp)
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, exp.Training.Kt)
	for id := range outs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := run([]string{"-config", faultAcceptance, "-addr", addr, "-id", fmt.Sprint(id), "-give-up", "20s"}, &outs[id], io.Discard); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if got := <-rounds; got != exp.Training.Rounds {
		t.Fatalf("server committed %d full rounds, want %d", got, exp.Training.Rounds)
	}
	for id := range outs {
		if out := outs[id].String(); !strings.Contains(out, "experiment "+exp.Digest()) || !strings.Contains(out, "update 4/4 sent (round 3)") {
			t.Errorf("client %d:\n%s", id, out)
		}
	}
}

// A client configured for another experiment refuses the server by digest.
func TestRefusesAnotherExperiment(t *testing.T) {
	exp, err := config.Load(faultAcceptance)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := serve(t, exp)
	// -give-up 1ns: fail on the first refusal instead of retrying.
	var out bytes.Buffer
	err = run([]string{"-config", faultAcceptance, "-set", "seed=7", "-addr", addr, "-give-up", "1ns"}, &out, io.Discard)
	want := "server is running experiment " + exp.Digest() + ", this client was configured for "
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one containing %q", err, want)
	}
}

func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "method.name=fedsdp-server"}, "method fedsdp-server sanitizes at the server, which fedserve's round servers do not do (updates would fold without clip or noise while ε is still charged); use fedsdp"},
		{[]string{"-set", "method.sigma=x"}, `method.sigma: not a number: "x"`},
		{[]string{"-rounds", "4"}, "flag provided but not defined: -rounds"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
