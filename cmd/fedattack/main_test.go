package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fedattack(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

// The victim is the experiment's: attack-matrix.yaml leaves the defense at
// the default Fed-CDP, whose per-example sanitization defeats type-2
// leakage; the same file with method.name=nonprivate leaks.
func TestAttackFollowsTheExperiment(t *testing.T) {
	const cfg = "../../configs/attack-matrix.yaml"
	defended, err := fedattack(t, "-config", cfg, "-type", "2", "-max-iters", "60")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(defended, "dataset=mnist method=fedcdp type=2") || !strings.Contains(defended, "revealed=false") {
		t.Fatalf("Fed-CDP victim:\n%s", defended)
	}
	open, err := fedattack(t, "-config", cfg, "-set", "method.name=nonprivate", "-type", "2", "-max-iters", "60")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(open, "method=nonprivate") || !strings.Contains(open, "revealed=true") {
		t.Fatalf("non-private victim:\n%s", open)
	}
	if strings.Fields(open)[1] == strings.Fields(defended)[1] {
		t.Fatal("the override did not move the experiment digest")
	}

	// Server-side Fed-SDP is where threat types 0 and 1 part (Fig. 4): the
	// server's view is sanitized, the update as the client sent it is raw —
	// exactly the non-private one.
	distance := func(args ...string) string {
		out, err := fedattack(t, append(args, "-max-iters", "20")...)
		if err != nil {
			t.Fatal(err)
		}
		_, d, _ := strings.Cut(out, "reconstruction-distance=")
		return strings.Fields(d)[0]
	}
	srv0 := distance("-set", "method.name=fedsdp-server", "-type", "0")
	srv1 := distance("-set", "method.name=fedsdp-server", "-type", "1")
	if srv0 == srv1 || srv1 != distance("-set", "method.name=nonprivate", "-type", "1") {
		t.Fatalf("fedsdp-server: type-0 distance %s, type-1 %s — want them apart, and type-1 the raw update's", srv0, srv1)
	}
	if srv0 != distance("-set", "method.name=fedsdp", "-type", "0") {
		t.Fatalf("type 0 reads the same sanitized update wherever Fed-SDP's noise is added, got %s", srv0)
	}
}

// Batched leakage under a staged plan and the runtime.simnet evaluation,
// with reconstructions written out: every identity value — federation
// shape, defense parameters, plan — comes from the experiment.
func TestBatchedAttackWithDefenseEval(t *testing.T) {
	dir := t.TempDir()
	out, err := fedattack(t,
		"-set", "method.name=fedsdp", "-set", "runtime.simnet=true", "-set", "faults.plan=poison=1:1",
		"-set", "training.k=6", "-set", "training.kt=3", "-set", "training.rounds=2", "-set", "training.iters=2", "-set", "training.val-examples=40",
		"-type", "1", "-batch", "2", "-max-iters", "20", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"method=fedsdp type=1", `faults="poison=1:1" simnet=true`, "defense-eval: ", "rounds=2", "wrote 2 truth/reconstruction pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	pgm, err := os.ReadFile(filepath.Join(dir, "recon_1.pgm"))
	if err != nil || !bytes.HasPrefix(pgm, []byte("P2\n28 28\n255\n")) {
		t.Fatalf("recon_1.pgm: %v, %.20q", err, pgm)
	}
}

func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "method.name=fed-cdp"}, `unknown method.name "fed-cdp" (have [nonprivate fedsdp`},
		{[]string{"-set", "faults.plan=meteor=1"}, "faults.plan"},
		{[]string{"-method", "dssgd"}, "flag provided but not defined: -method"},
		{[]string{"-type", "7"}, "-type 7: the leakage type is 0, 1 or 2"},
		{[]string{"-type", "-1"}, "-type -1: the leakage type is 0, 1 or 2"},
	} {
		if _, err := fedattack(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
