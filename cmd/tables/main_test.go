package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fedcdp/internal/config"
)

func tables(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

// experiment.name selects the driver, and the report carries the digest of
// the experiment that produced it — the default one with that key set.
func TestRunsTheNamedExperiment(t *testing.T) {
	out, err := tables(t, "-set", "experiment.name=table6")
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.Experiment.Name = "table6"
	if !strings.Contains(out, "table6") || !strings.Contains(out, want.Digest()) {
		t.Fatalf("report is not table6 stamped %s:\n%s", want.Digest(), out)
	}

	csv, err := tables(t, "-set", "experiment.name=table6", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "experiment,scenario,") || !strings.Contains(csv, "\ntable6,iid,") {
		t.Fatalf("csv output:\n%s", csv)
	}
}

// A sweep block runs the driver once per seed, each under its own digest.
func TestSweep(t *testing.T) {
	out, err := tables(t, "-set", "experiment.name=table6", "-set", "sweep.seeds=[1, 2]", "-sweep-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "--- sweep seed=") != 2 || !strings.Contains(out, "--- sweep seed=2 digest=") {
		t.Fatalf("sweep output:\n%s", out)
	}
}

func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "experiment.name=table99"}, `unknown experiment "table99"`},
		{[]string{"-set", "experiment.scale=big"}, `experiment.scale: not a number: "big"`},
		{[]string{"-exp", "bench"}, "flag provided but not defined: -exp"},
		// A key the driver sets itself is refused, not silently overridden.
		{[]string{"-set", "experiment.name=table2", "-set", "training.k=50"}, "table2 sets training.k itself (training.k=40 in one of its runs); clear it"},
		{[]string{"-set", "experiment.name=byzantine", "-set", "aggregation.rule=median"}, "byzantine sets aggregation.rule itself (aggregation.rule=fedsgd in one of its runs); clear it"},
	} {
		if _, err := tables(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
