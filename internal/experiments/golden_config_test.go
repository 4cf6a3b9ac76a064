package experiments

import (
	"reflect"
	"testing"

	"fedcdp/internal/config"
)

// TestGoldenAttackMatrixConfig pins configs/attack-matrix.yaml to the PR 8
// attack×defense sweep: the config file must derive exactly the Options
// literal the sweep was first pinned with, and running both
// must produce cell-for-cell identical reports — the config digest rides
// the report as pure metadata.
func TestGoldenAttackMatrixConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("double attack-matrix sweep skipped in -short")
	}
	e, err := config.Load("../../configs/attack-matrix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Experiment.Name != "byzantine" {
		t.Fatalf("experiment %q, want byzantine", e.Experiment.Name)
	}

	fromFile := FromExperiment(e)
	fromFlags := Options{Seed: 42, Scale: 1}
	if fromFile.ConfigDigest != e.Digest() {
		t.Fatalf("options digest %q, want %q", fromFile.ConfigDigest, e.Digest())
	}
	stripped := fromFile
	stripped.ConfigDigest = ""
	if !reflect.DeepEqual(stripped, fromFlags) {
		t.Fatalf("config file derives different options than the flags:\nfile:  %+v\nflags: %+v", stripped, fromFlags)
	}

	rFile, err := Run(e.Experiment.Name, fromFile)
	if err != nil {
		t.Fatal(err)
	}
	rFlags, err := Run("byzantine", fromFlags)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rFile.Rows, rFlags.Rows) {
		t.Fatal("config-driven sweep produced different cells than the flag-driven sweep")
	}
	if rFile.ConfigDigest != e.Digest() {
		t.Fatalf("report digest %q, want %q", rFile.ConfigDigest, e.Digest())
	}
	if rFlags.ConfigDigest != "" {
		t.Fatalf("flag-driven report carries digest %q, want none", rFlags.ConfigDigest)
	}
}
