package main

import (
	"bufio"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/fl"
	"fedcdp/internal/fltest"
)

const faultAcceptance = "../../configs/fault-acceptance.yaml"

// serveFleet runs fedserve on the fault-acceptance experiment — without its
// plan, which a dial-in deployment refuses (TestRefusals), and with sets
// applied — and plays its whole fleet: kt library clients expecting that
// experiment's digest, each dialing until the server is gone. It returns
// everything fedserve printed after its banner. A stray, if any, runs to
// completion first, so it has its session before the fleet dials.
func serveFleet(t *testing.T, stray func(addr string) error, bannerWant string, sets ...string) []string {
	t.Helper()
	cf := config.Flags{Path: faultAcceptance, Sets: append([]string{"faults.plan="}, sets...)}
	args := []string{"-config", cf.Path, "-addr", "127.0.0.1:0"}
	for _, s := range cf.Sets {
		args = append(args, "-set", s)
	}
	exp, err := cf.Load()
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.CoreConfig().Resolve()
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(args, pw, io.Discard)
		pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no banner: %v", <-done)
	}
	m := regexp.MustCompile(`experiment ([0-9a-f]{16}): cancer on (127\.0\.0\.1:\d+) .* ` + bannerWant).FindStringSubmatch(lines.Text())
	if m == nil || m[1] != exp.Digest() {
		t.Fatalf("banner %q does not announce experiment %s as %q", lines.Text(), exp.Digest(), bannerWant)
	}

	var wg sync.WaitGroup
	client := func(id int) {
		defer wg.Done()
		opt := fl.ClientOptions{ExpectDigest: exp.Digest()}
		for {
			// Any error ends the client: the refusal or dead socket of a
			// finished server, or a session the server counted as failed.
			_, err := fl.RunRemoteClientRound(m[2], id, r.FL.Strategy, r.FL.Data.Client(id), r.FL.Model, r.Cfg.Seed, opt)
			if err != nil {
				return
			}
		}
	}
	wg.Add(r.Cfg.Kt)
	go func() {
		if stray != nil {
			if err := stray(m[2]); err != nil {
				t.Error(err)
			}
		}
		for id := 0; id < r.Cfg.Kt; id++ {
			go client(id)
		}
	}()
	var served []string
	for lines.Scan() {
		served = append(served, lines.Text())
	}
	if err := <-done; err != nil {
		t.Fatalf("%v\n%s", err, strings.Join(served, "\n"))
	}
	wg.Wait()
	return served
}

// fedserve on a config file serves exactly that experiment: library
// clients expecting the file's digest are admitted, kt of them fold per
// round, and after training.rounds rounds the server prints fedtrain's
// report.
func TestServesTheConfiguredExperiment(t *testing.T) {
	served := serveFleet(t, nil, "4 rounds, 6 clients/round, deadline=0s, quorum=1, scenario=dirichlet")
	if len(served) < 4 {
		t.Fatalf("want 4 round lines, got:\n%s", strings.Join(served, "\n"))
	}
	for r, line := range served[:4] {
		if !strings.Contains(line, "6/6 updates folded") || !strings.Contains(line, "committed") {
			t.Errorf("round %d: %s", r, line)
		}
	}
	report := strings.Join(served[4:], "\n")
	for _, want := range []string{
		"dataset=cancer method=fed-cdp K=12 Kt=6 T=4 L=3\nscenario=dirichlet",
		"\nround  accuracy  grad-norm  ms/iter  epsilon\n    0  ",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	final := served[len(served)-1]
	if m := regexp.MustCompile(`^final: accuracy=0\.\d{4} best=0\.\d{4} epsilon=(\d+\.\d{4}) `).FindStringSubmatch(final); m == nil || m[1] == "0.0000" {
		t.Errorf("last line %q is not fedtrain's final: line with the run's ε", final)
	}
}

// A peer that fails its session costs fedserve that slot, not the run: with no
// deadline configured it still serves all four rounds — one of them a client
// short — and closes with the report.
func TestSurvivesHostilePeers(t *testing.T) {
	for name, peer := range fltest.HostilePeers {
		served := strings.Join(serveFleet(t, peer, "4 rounds, 6 clients/round, deadline=0s"), "\n")
		short := strings.Count(served, "5/6 updates folded (1 failed")
		full := strings.Count(served, "6/6 updates folded (0 failed")
		if short != 1 || full != 3 || !strings.Contains(served, "\nfinal: accuracy=") {
			t.Errorf("a peer that %s: want one round a client short, three full ones and the final: line, got:\n%s", name, served)
		}
	}
}

// The engine's schedule and dropout coin are fedserve's too: it evaluates
// rounds r%n == 0 and the last, not every round whatever the file says, and
// a dropout rate thins the number of updates a round waits for.
func TestHonorsEvalEveryAndDropout(t *testing.T) {
	// Seed 42 at dropout 0.5 keeps 2, 2, 2 and 3 of each round's 6.
	served := serveFleet(t, nil, "4 rounds", "training.eval-every=2", "runtime.dropout=0.5")
	row := regexp.MustCompile(`^ +(\d) +(-|0\.\d{4})  `)
	fold := regexp.MustCompile(`^round \d: (\d)/(\d) updates folded`)
	var evaluated []string
	quotas := ""
	for _, line := range served {
		if m := row.FindStringSubmatch(line); m != nil && m[2][0] == '0' {
			evaluated = append(evaluated, m[1])
		}
		if m := fold.FindStringSubmatch(line); m != nil {
			quotas += m[1] + "/" + m[2] + " "
		}
	}
	if got := strings.Join(evaluated, " "); got != "0 2 3" {
		t.Errorf("accuracy printed on rounds %q, want rounds 0, 2 and the last:\n%s", got, strings.Join(served, "\n"))
	}
	if quotas != "2/2 2/2 2/2 3/3 " {
		t.Errorf("rounds waited for %q updates, want the dropout coin's 2/2 2/2 2/2 3/3", quotas)
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
		{[]string{"-set", "training.clients=2"}, `unknown key "clients" in section training (have k, kt, rounds`},
		{[]string{"-set", "runtime.quorum=9"}, "runtime.quorum 9 exceeds training.kt 8"},
		{[]string{"-kt", "2"}, "flag provided but not defined: -kt"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
