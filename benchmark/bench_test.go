package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fedcdp/internal/config"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The checked-in BENCHMARK.json is exactly what the code defines, so the
// workload and metric names the driver reads are the ones the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the code; regenerate it with `go run . -spec`\n got %+v\nwant %+v", got, want)
	}
	seen := map[string]bool{}
	for _, n := range append(append(namesOf(endToEnd), namesOf(perLayer)...), workloadNames()...) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func namesOf(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// Every workload parses, validates, and passes every check on a one-repeat
// run at a fifth of its rounds; the run emits every end-to-end metric.
func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames() {
		run, w, err := measureE2E(name, 42, 0, 1, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.Correct {
			t.Fatalf("%s: %s", name, run.CheckError)
		}
		if len(w.DroppedKeys) != 0 {
			t.Errorf("%s: dropped keys %v at a commit that still has them", name, w.DroppedKeys)
		}
		for _, d := range endToEnd {
			m, ok := run.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", name, d.Name, m.Unit, d.Unit)
			} else if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", name, d.Name)
			}
		}
	}
}

// The traced run emits exactly the per-layer metric set, writes its span log
// and profile, and its client-step replica reproduces the real updates.
func TestSmokeTrace(t *testing.T) {
	dir := t.TempDir()
	run, err := measureTrace("flat-faulted", 42, 0, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct {
		t.Fatal(run.CheckError)
	}
	if !run.ReplicaSame {
		t.Error("the client-step replica no longer reproduces core's updates bit for bit")
	}
	want := map[string]string{}
	for _, d := range perLayer {
		want[d.Name] = d.Unit
	}
	for name, m := range run.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("emitted metric %s (%s) is not in the per-layer table", name, m.Unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("per-layer metric %s was not emitted", name)
	}
	for _, f := range []string{run.SpanFile, run.ProfileFile} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", f, err)
		}
	}
}

// A key listed under "# optional-keys:" is dropped when the parser no longer
// knows it; any other unknown key is still an error.
func TestParseTolerantDropsOnlyListedKeys(t *testing.T) {
	doc := []byte("# optional-keys: codec.wire aggregation.sampler\nversion: 1\ncodec:\n  wire: binary\ntraining:\n  k: 8\n")
	withoutWire := func(b []byte) (*config.Experiment, error) {
		for i, line := range strings.Split(string(b), "\n") {
			if strings.TrimSpace(line) == "wire: binary" {
				return nil, fmt.Errorf(`line %d: unknown key "wire" in section codec (have quant)`, i+1)
			}
		}
		return config.Parse(b)
	}
	exp, dropped, err := parseTolerant(doc, withoutWire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dropped, []string{"codec.wire"}) || exp.Training.K != 8 {
		t.Fatalf("dropped %v, k %d", dropped, exp.Training.K)
	}
	if _, _, err := parseTolerant([]byte("version: 1\ncodec:\n  wirez: binary\n"), config.Parse); err == nil {
		t.Fatal("an unlisted unknown key was accepted")
	}
}

func TestJudge(t *testing.T) {
	at := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3, N: 12} }
	for _, c := range []struct {
		a, b   metric
		better string
		bound  float64
		want   string
	}{
		{at(100, 99, 101), at(104, 103, 105), "lower", 0.10, unchanged},
		{at(100, 99, 101), at(115, 114, 116), "lower", 0.10, regressed},
		{at(100, 99, 101), at(85, 84, 86), "lower", 0.10, improved},
		{at(100, 90, 110), at(104, 95, 113), "lower", 0.10, unresolved},
		{at(100, 99, 101), at(85, 84, 86), "higher", 0.10, regressed},
		{metric{Value: 0.2}, metric{Value: 0.2}, "lower", 0, unchanged},
		{metric{Value: 0.2}, metric{Value: 0.21}, "lower", 0, regressed},
		{metric{Value: 0}, metric{Value: 0.1}, "lower", 0, regressed},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("judge(%v → %v, %s, %v) = %s, want %s", c.a.Value, c.b.Value, c.better, c.bound, got, c.want)
		}
	}
}
