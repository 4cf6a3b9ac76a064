package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"fedcdp/internal/config"
)

// TestGoldenAttackMatrixConfig pins configs/attack-matrix.yaml to the PR 8
// attack×defense sweep: the file is the default experiment with
// experiment.name=byzantine — same canonical bytes — so it plans the same
// cells, and its report carries that experiment's digest.
func TestGoldenAttackMatrixConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("attack-matrix sweep skipped in -short")
	}
	e, err := config.Load("../../configs/attack-matrix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	fromSets := exp(t, "experiment.name=byzantine")
	if !bytes.Equal(e.Canonical(), fromSets.Canonical()) {
		t.Fatalf("config file is not Default() + experiment.name=byzantine:\n%s\nvs\n%s", e.Canonical(), fromSets.Canonical())
	}
	if got, want := planned(t, e), planned(t, fromSets); len(got) != 64 || !reflect.DeepEqual(got, want) {
		t.Fatalf("config file plans %d cells, differing from the %d the sets plan", len(got), len(want))
	}
	rep, err := Run(e.Experiment.Name, e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConfigDigest != e.Digest() {
		t.Fatalf("report digest %q, want %q", rep.ConfigDigest, e.Digest())
	}
	if got := rowsDigest(rep.Rows); got != goldenRows["byzantine"] {
		t.Fatalf("attack-matrix.yaml rows digest %s, want %s", got, goldenRows["byzantine"])
	}
}

// rowsDigest is the FNV-1a 64 hash of a report's cells.
func rowsDigest(rows [][]string) string {
	h := fnv.New64a()
	for _, row := range rows {
		for _, c := range row {
			h.Write([]byte(c))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRows are the Report.Rows digests of the default experiment (seed 42,
// scale 1), captured at the commit before the drivers moved from private
// core.Config literals onto sets over the user's experiment: the move changed
// no cell of any report.
var goldenRows = map[string]string{
	"faults":    "ccca8a95ae489c38",
	"churn":     "adb2a962e97e8f5b",
	"byzantine": "0d52f8de6e1e5674",
	"table6":    "c6c6da813e774e13",
	"fig3":      "adfeb5ae8e34394a",
}

func TestGoldenReportRows(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweeps")
	}
	for name, want := range goldenRows {
		if name == "byzantine" {
			continue // TestGoldenAttackMatrixConfig runs it, from the config file
		}
		rep, _ := trained(t, name)
		if got := rowsDigest(rep.Rows); got != want {
			t.Errorf("%s: rows digest %s, want %s — a default-experiment report cell moved:\n%s", name, got, want, rep)
		}
	}
}
