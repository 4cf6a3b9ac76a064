package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
)

const faultAcceptance = "../../configs/fault-acceptance.yaml"

// serve runs the library's dial-in server (core.Serve) for the experiment on
// a free port; result delivers its outcome once it stops.
func serve(t *testing.T, exp *config.Experiment) (addr string, result <-chan *core.Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan *core.Result, 1)
	go func() {
		res, _ := core.Serve(exp.CoreConfig(), ln, false, io.Discard)
		done <- res // nil when the test closed the server under its clients
	}()
	return ln.Addr().String(), done
}

// load reads the fault-acceptance experiment as the fleet below runs it:
// without its plan, which a dial-in deployment refuses (TestRefusals).
func load(t *testing.T) *config.Experiment {
	t.Helper()
	exp, err := (&config.Flags{Path: faultAcceptance, Sets: []string{"faults.plan="}}).Load()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// Given only the file and transport flags, kt clients see every one of the
// file's training.rounds rounds through — the horizon is the experiment's,
// not a private flag default.
func TestParticipatesForTrainingRounds(t *testing.T) {
	exp := load(t)
	addr, result := serve(t, exp)
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, exp.Training.Kt)
	for id := range outs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := run([]string{"-config", faultAcceptance, "-set", "faults.plan=", "-addr", addr, "-id", fmt.Sprint(id), "-give-up", "20s"}, &outs[id], io.Discard); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	res := <-result
	if res == nil || len(res.Rounds) != exp.Training.Rounds {
		t.Fatalf("server did not finish its %d rounds: %+v", exp.Training.Rounds, res)
	}
	for _, rs := range res.Rounds {
		if !rs.Committed || rs.Clients != exp.Training.Kt {
			t.Errorf("round %d folded %d of %d updates, committed=%v", rs.Round, rs.Clients, exp.Training.Kt, rs.Committed)
		}
	}
	for id := range outs {
		if out := outs[id].String(); !strings.Contains(out, "experiment "+exp.Digest()) || !strings.Contains(out, "update 4/4 sent (round 3)") {
			t.Errorf("client %d:\n%s", id, out)
		}
	}
}

// A client configured for another experiment refuses the server by digest.
func TestRefusesAnotherExperiment(t *testing.T) {
	exp := load(t)
	addr, _ := serve(t, exp)
	// -give-up 1ns: fail on the first refusal instead of retrying.
	var out bytes.Buffer
	err := run([]string{"-config", faultAcceptance, "-set", "faults.plan=", "-set", "seed=7", "-addr", addr, "-give-up", "1ns"}, &out, io.Discard)
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
		{[]string{"-set", "method.name=fedsdp-server"}, "method.name: method fedsdp-server sanitizes at the server, which fedserve's round servers do not do (updates would fold without clip or noise while ε is still charged); use fedsdp"},
		{[]string{"-set", "faults.plan=drop=0.2"}, `faults.plan "drop=0.2" is realized on the simnet fabric (fedtrain -set runtime.simnet=true)`},
		{[]string{"-set", "faults.plan=restart=1"}, `faults.plan "restart=1" is realized on the simnet fabric (fedtrain -set runtime.simnet=true)`},
		{[]string{"-set", "faults.population=churn=0.05"}, `faults.population "churn=0.05" is realized on the simnet fabric (fedtrain -set runtime.simnet=true)`},
		{[]string{"-set", "runtime.simnet=true"}, "runtime.simnet deploys the whole federation in one process over the in-memory fabric, which is fedtrain's to run (fedtrain -set runtime.simnet=true)"},
		{[]string{"-config", faultAcceptance}, `faults.plan "drop=0.2,crash=2,restart=1" is realized on the simnet fabric`},
		{[]string{"-set", "method.sigma=x"}, `method.sigma: not a number: "x"`},
		{[]string{"-rounds", "4"}, "flag provided but not defined: -rounds"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
