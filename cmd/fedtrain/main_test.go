package main

import (
	"bytes"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const faultAcceptance = "../../configs/fault-acceptance.yaml"

// fedtrain runs the binary in-process and returns its stdout.
func fedtrain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

func digestOf(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`digest=([0-9a-f]{16})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest in output:\n%s", out)
	}
	return m[1]
}

// The checked-in acceptance config keeps the identity it has had since it
// was written, and a -set is that file edited: another digest, and under
// nonprivate no privacy spending.
func TestConfigAndSet(t *testing.T) {
	out, err := fedtrain(t, "-config", faultAcceptance)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(t, out); got != "f1370add41d09e6a" {
		t.Fatalf("fault-acceptance.yaml digests to %s, want f1370add41d09e6a", got)
	}
	if !strings.Contains(out, "dataset=cancer method=fed-cdp K=12 Kt=6 T=4 L=3") {
		t.Fatalf("run does not follow the file:\n%s", out)
	}

	np, err := fedtrain(t, "-config", faultAcceptance, "-set", "method.name=nonprivate")
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(t, np) == digestOf(t, out) {
		t.Fatal("-set method.name=nonprivate left the digest unchanged")
	}
	if !strings.Contains(np, "method=non-private") || !strings.Contains(np, "epsilon=0.0000") {
		t.Fatalf("nonprivate override must report ε = 0:\n%s", np)
	}
}

// Every way of getting -set wrong fails before any training, naming the key.
func TestSetRefusals(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want string
	}{
		{"method.strength=11", `unknown key "strength" in section method (have name, clip, sigma`},
		{"method.sigma=lots", `method.sigma: not a number: "lots"`},
		{"method.sigma", `invalid value "method.sigma" for flag -set: want section.key=value`},
		{"method.name=non-private", `unknown method.name "non-private" (have [nonprivate fedsdp`},
	} {
		out, err := fedtrain(t, "-config", faultAcceptance, "-set", tc.arg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-set %s: error %v, want one containing %q", tc.arg, err, tc.want)
		}
		if out != "" {
			t.Errorf("-set %s: refused run still printed:\n%s", tc.arg, out)
		}
	}
}

// A checkpoint carries its own experiment: resuming takes the further
// rounds from training.rounds and refuses every other way of naming one.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := fedtrain(t, "-config", faultAcceptance, "-set", "training.rounds=2", "-set", "training.planned-rounds=4", "-checkpoint-out", ckpt); err != nil {
		t.Fatal(err)
	}
	out, err := fedtrain(t, "-checkpoint-in", ckpt, "-set", "training.rounds=2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dataset=cancer method=fed-cdp K=12 Kt=6 T=4 L=3") {
		t.Fatalf("resumed run is not the checkpoint's experiment continued to round 4:\n%s", out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", faultAcceptance}, "-config " + faultAcceptance + " cannot accompany -checkpoint-in"},
		{[]string{"-set", "method.sigma=1"}, "-set method.sigma cannot accompany -checkpoint-in"},
	} {
		if _, err := fedtrain(t, append([]string{"-checkpoint-in", ckpt}, tc.args...)...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// A sweep block fans out over its seeds, each run under its own digest.
func TestSweep(t *testing.T) {
	out, err := fedtrain(t, "-config", faultAcceptance, "-set", "sweep.seeds=[1, 2]", "-sweep-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep: 2 seeds") || !strings.Contains(out, "seed=1 ") || !strings.Contains(out, "seed=2 ") {
		t.Fatalf("sweep output:\n%s", out)
	}
}
