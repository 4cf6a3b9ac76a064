package main

import (
	"bufio"
	"errors"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
)

const faultAcceptance = "../../configs/fault-acceptance.yaml"

// fedserve on a config file serves exactly that experiment: library
// clients expecting the file's digest are admitted, kt of them fold per
// round, and the server stops after training.rounds rounds.
func TestServesTheConfiguredExperiment(t *testing.T) {
	exp, err := config.Load(faultAcceptance)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-config", faultAcceptance, "-addr", "127.0.0.1:0"}, pw, io.Discard)
		pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no banner: %v", <-done)
	}
	m := regexp.MustCompile(`experiment ([0-9a-f]{16}): cancer on (127\.0\.0\.1:\d+) .* 4 rounds, 6 clients/round, deadline=0s, quorum=1, scenario=dirichlet`).FindStringSubmatch(lines.Text())
	if m == nil || m[1] != exp.Digest() {
		t.Fatalf("banner %q does not announce experiment %s as the file describes it", lines.Text(), exp.Digest())
	}

	cfg := exp.CoreConfig()
	spec, _ := dataset.Get(cfg.Dataset)
	ds := dataset.New(spec, cfg.Seed)
	strat, err := cfg.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < cfg.Kt; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			opt := fl.ClientOptions{ExpectDigest: exp.Digest()}
			for {
				round, err := fl.RunRemoteClientRound(m[2], id, strat, ds.Client(id), spec.ModelSpec(), cfg.Seed, opt)
				if err != nil {
					if !errors.Is(err, fl.ErrRoundClosed) && opt.MinRound < cfg.Rounds {
						t.Errorf("client %d: %v", id, err)
					}
					return
				}
				opt.MinRound = max(opt.MinRound, round+1)
			}
		}(id)
	}
	var served []string
	for lines.Scan() {
		served = append(served, lines.Text())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(served) != cfg.Rounds+1 || served[cfg.Rounds] != "fedserve: done" {
		t.Fatalf("want %d round lines and done, got:\n%s", cfg.Rounds, strings.Join(served, "\n"))
	}
	for r, line := range served[:cfg.Rounds] {
		if !strings.Contains(line, "6/6 updates folded") || !strings.Contains(line, "committed") {
			t.Errorf("round %d: %s", r, line)
		}
	}
}

func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "method.name=fedsdp-server"}, "method fedsdp-server sanitizes at the server, which fedserve's round servers do not do (updates would fold without clip or noise while ε is still charged); use fedsdp"},
		{[]string{"-set", "training.clients=2"}, `unknown key "clients" in section training (have k, kt, rounds`},
		{[]string{"-set", "runtime.quorum=9"}, "runtime.quorum 9 exceeds training.kt 8"},
		{[]string{"-kt", "2"}, "flag provided but not defined: -kt"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
