package config

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedcdp/internal/core"
	"fedcdp/internal/fl"
)

// The empty document is the default experiment: Parse of nothing
// must equal Default() field-for-field, and both must validate.
func TestEmptyDocumentIsDefault(t *testing.T) {
	for _, doc := range []string{"", "\n", "# just a comment\n\n", "version: 1\n"} {
		e, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("Parse(%q): %v", doc, err)
		}
		if !reflect.DeepEqual(e, Default()) {
			t.Fatalf("Parse(%q) = %+v, want Default() = %+v", doc, e, Default())
		}
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default().Validate(): %v", err)
	}
}

func TestParseFullDocument(t *testing.T) {
	doc := `
# A document exercising every section and every scalar type.
version: 1
seed: 7

data:
  dataset: cancer
  scenario: dirichlet
  alpha: 0.1

method:
  name: fedsdp-server
  clip: 2.5
  sigma: 0.05

runtime:
  simnet: false
  deadline: 150ms
  quorum: 2
  dropout: 0.25

faults:
  plan: drop=0.2,crash=1

aggregation:
  rule: trimmed:0.34
  shards: 4
  sampler: floyd

codec:
  wire: binary

training:
  k: 12
  kt: 6
  rounds: 3
  iters: 2
  lr: 0.15
  val-examples: 60
  eval-every: 1

sweep:
  seeds: [1, 2, 3]
`
	e, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Seed = 7
	want.Data = DataBlock{Dataset: "cancer", Scenario: "dirichlet", Alpha: 0.1}
	want.Method.Name = core.MethodFedSDPSrv
	want.Method.Clip = 2.5
	want.Method.Sigma = 0.05
	want.Runtime = RuntimeBlock{Deadline: 150 * time.Millisecond, Quorum: 2, Dropout: 0.25}
	want.Faults = FaultsBlock{Plan: "drop=0.2,crash=1"}
	want.Aggregation = AggregationBlock{Rule: "trimmed:0.34", Shards: 4, Sampler: fl.SamplerFloyd}
	want.Codec = CodecBlock{Wire: fl.CodecBinary}
	want.Training = TrainingBlock{K: 12, Kt: 6, Rounds: 3, LocalIters: 2, LR: 0.15, ValExamples: 60, EvalEvery: 1}
	want.Sweep = SweepBlock{Seeds: []int64{1, 2, 3}}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", e, want)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Hostile and malformed inputs must be rejected with a line number and a
// message naming the offense — never silently dropped or misread.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown section", "bogus:\n  key: 1\n", `unknown section "bogus"`},
		{"unknown key in section", "method:\n  strength: 11\n", `unknown key "strength" in section method`},
		{"unknown top-level key", "speed: 9\n", `unknown key "speed" in top level`},
		// The mode switches retired with their oracles are unknown keys now —
		// refused with a line number, not silently ignored.
		{"removed model.engine", "model:\n  engine: batched\n", `line 1: unknown section "model" (have data, method`},
		// So is the model section, with model.precision its last key.
		{"removed model section", "seed: 1\nmodel:\n", `line 2: unknown section "model" (have data, method`},
		{"removed model.precision", "model:\n  precision: fp32\n", `line 1: unknown section "model" (have data, method`},
		{"removed method.noise-engine", "method:\n  sigma: 1\n  noise-engine: counter\n", `line 3: unknown key "noise-engine" in section method`},
		{"removed runtime.name", "runtime:\n  name: streaming\n", `line 2: unknown key "name" in section runtime`},
		{"removed codec.quant", "codec:\n  quant: 8\n", `unknown key "quant" in section codec`},
		{"removed aggregation.tree-fanout", "aggregation:\n  shards: 4\n  tree-fanout: 2\n", `line 3: unknown key "tree-fanout" in section aggregation`},
		{"duplicate key", "method:\n  sigma: 1\n  sigma: 2\n", "duplicate key method.sigma"},
		{"duplicate top-level key", "seed: 1\nseed: 2\n", "duplicate key seed"},
		{"duplicate section", "method:\n  sigma: 1\nmethod:\n  clip: 2\n", `duplicate section "method"`},
		{"tab indentation", "method:\n\tsigma: 1\n", "tab indentation"},
		{"value on section header", "method: fedcdp\n", `section "method" takes no value`},
		{"indented key outside section", "  sigma: 1\n", `indented key "sigma" outside a section`},
		{"missing value", "method:\n  name:\n", "missing value"},
		{"not a key-value line", "just some prose\n", "not a"},
		{"bad integer", "training:\n  k: twelve\n", "not an integer"},
		{"bad float", "method:\n  sigma: much\n", "not a number"},
		{"nan float", "method:\n  sigma: NaN\n", "line 2: method.sigma: not a finite number"},
		{"infinite float", "runtime:\n  dropout: +Inf\n", "line 2: runtime.dropout: not a finite number"},
		{"bad bool", "runtime:\n  simnet: yes\n", "not a boolean"},
		{"bad duration", "runtime:\n  deadline: 5 minutes\n", "not a duration"},
		{"bad list", "sweep:\n  seeds: 1, 2\n", "not a list"},
		{"bad list element", "sweep:\n  seeds: [1, x]\n", "element 1 not an integer"},
		{"bad quoted string", "data:\n  dataset: \"unterminated\n", "bad quoted string"},
		{"future version", "version: 2\n", "unsupported config version 2"},
		{"empty key", ": 5\n", "empty key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.doc, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) = %v, want error containing %q", tc.doc, err, tc.want)
			}
		})
	}
}

// Error messages must carry the 1-based line number of the offending line,
// or nobody can fix a 40-line config from the message alone.
func TestParseErrorLineNumbers(t *testing.T) {
	doc := "version: 1\n\nmethod:\n  name: fedcdp\n  sigma: oops\n"
	_, err := Parse([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("want line 5 in error, got %v", err)
	}
}

// Canonicalization is a fixed point: parsing the canonical form and
// re-canonicalizing yields the same bytes, for the default and for a
// document touching every section.
func TestCanonicalRoundTrip(t *testing.T) {
	docs := map[string]string{
		"empty": "",
		"full": `seed: 9
data:
  dataset: cancer
  scenario: dirichlet
  alpha: 0.3
method:
  name: dssgd
  share: 0.25
runtime:
  deadline: 2s
aggregation:
  rule: krum:2
codec:
  wire: binary
training:
  k: 10
  kt: 5
sweep:
  seeds: [4, 5]
`,
		"quoted": "data:\n  dataset: \"cancer\"\n",
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			e, err := Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			canon := e.Canonical()
			e2, err := Parse(canon)
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
			}
			if !bytes.Equal(e2.Canonical(), canon) {
				t.Fatalf("canonicalization not idempotent:\nfirst:\n%s\nsecond:\n%s", canon, e2.Canonical())
			}
			if !reflect.DeepEqual(e2, e.normalized()) {
				t.Fatalf("Parse(Canonical(e)) = %+v, want normalized %+v", e2, e.normalized())
			}
			if e2.Digest() != e.Digest() {
				t.Fatalf("digest changed across round trip: %s vs %s", e2.Digest(), e.Digest())
			}
		})
	}
}

// The digest is an identity for the experiment, not for the document: key
// order, section order, comments, blank lines, quoting and spelled-out
// defaults must all hash identically.
func TestDigestStableAcrossFormatting(t *testing.T) {
	a := `version: 1
seed: 5
data:
  dataset: cancer
method:
  sigma: 0.05
  name: fedcdp
`
	b := `# same experiment, different document
method:
  name: "fedcdp"
  sigma: 0.05

data:
  dataset: cancer
  scenario: iid      # the default, spelled out

seed: 5
codec:
  wire: gob
`
	ea, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if ea.Digest() != eb.Digest() {
		t.Fatalf("equivalent documents digest differently:\n%s\nvs\n%s", ea.Canonical(), eb.Canonical())
	}
	if ea.Digest() == Default().Digest() {
		t.Fatal("a non-default experiment digests like the default")
	}
	if len(ea.Digest()) != 16 {
		t.Fatalf("digest %q is not 16 hex digits", ea.Digest())
	}
}

// Every semantically distinct value must move the digest: two experiments
// differing in exactly one field cannot share an identity.
func TestDigestDistinguishesEveryField(t *testing.T) {
	seen := map[string]string{Default().Digest(): "default"}
	for _, f := range index.fields {
		if f.key == "version" {
			continue
		}
		e := Default()
		// Drive each field away from its default through its own setter.
		var v string
		switch f.get(e) {
		case "true":
			v = "false"
		case "false":
			v = "true"
		case "0s":
			v = "1s"
		case "[]":
			v = "[1, 2]"
		default:
			switch f.key {
			case "dataset":
				v = "cancer"
			case "scenario":
				v = "dirichlet"
			case "name":
				if f.section == "experiment" {
					v = "table1"
				} else {
					v = core.MethodDSSGD
				}
			case "rule":
				v = fl.AggMedian
			case "sampler":
				v = fl.SamplerFloyd
			case "wire":
				v = fl.CodecBinary
			default:
				v = "73"
			}
		}
		if err := f.set(e, v); err != nil {
			t.Fatalf("%s.%s = %q: %v", f.section, f.key, v, err)
		}
		d := e.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("%s.%s = %q digests identically to %s", f.section, f.key, v, prev)
		}
		seen[d] = f.section + "." + f.key
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(e *Experiment)
		want   string
	}{
		{"bad version", func(e *Experiment) { e.Version = 3 }, "unsupported version"},
		{"empty dataset", func(e *Experiment) { e.Data.Dataset = "" }, "data.dataset must be set"},
		{"unknown dataset", func(e *Experiment) { e.Data.Dataset = "imagenet" }, "data.dataset"},
		{"unknown method", func(e *Experiment) { e.Method.Name = "fed-prox" }, "unknown method.name"},
		{"unknown sampler", func(e *Experiment) { e.Aggregation.Sampler = "knuth" }, "unknown aggregation.sampler"},
		{"unknown codec", func(e *Experiment) { e.Codec.Wire = "json" }, "unknown codec.wire"},
		{"server-side sdp under simnet", func(e *Experiment) { e.Method.Name, e.Runtime.Simnet = core.MethodFedSDPSrv, true }, "round servers do not"},
		{"deadline under simnet", func(e *Experiment) { e.Runtime.Deadline, e.Runtime.Simnet = time.Second, true }, "whose clock is virtual"},
		{"unknown aggregation", func(e *Experiment) { e.Aggregation.Rule = "mode" }, "unknown aggregation.rule"},
		{"unknown scenario", func(e *Experiment) { e.Data.Scenario = "zipf" }, "data.scenario"},
		{"bad fault plan", func(e *Experiment) { e.Faults.Plan = "meteor=1" }, "faults.plan"},
		{"negative k", func(e *Experiment) { e.Training.K = -1 }, "training.k must be non-negative"},
		{"kt over k", func(e *Experiment) { e.Training.Kt = 99 }, "training.kt 99 exceeds training.k"},
		{"quorum over kt", func(e *Experiment) { e.Runtime.Quorum = 9 }, "runtime.quorum 9 exceeds training.kt"},
		{"dropout range", func(e *Experiment) { e.Runtime.Dropout = 1.5 }, "runtime.dropout"},
		{"compress range", func(e *Experiment) { e.Method.Compress = 1 }, "method.compress"},
		{"negative sigma", func(e *Experiment) { e.Method.Sigma = -1 }, "method.sigma must be non-negative"},
		{"negative scale", func(e *Experiment) { e.Experiment.Scale = -2 }, "experiment.scale"},
		{"driver under simnet", func(e *Experiment) { e.Experiment.Name, e.Runtime.Simnet = "table1", true }, "cannot run under runtime.simnet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := Default()
			tc.mutate(e)
			err := e.Validate()
			if err == nil {
				t.Fatal("Validate() passed, want rejection")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// offDefault is a well-typed, non-default value for every schema key. The
// per-key tests below range over the schema and fail on a key missing
// here, so a new key cannot land without joining them.
var offDefault = map[string]string{
	"version": "2", "seed": "7",
	"data.dataset": "cancer", "data.scenario": "dirichlet", "data.alpha": "0.1", "data.shards": "3", "data.period": "4",
	"method.name": "dssgd", "method.clip": "2.5", "method.sigma": "0.5", "method.accountant-sigma": "6",
	"method.delta": "1e-06", "method.decay-from": "8", "method.decay-to": "1", "method.share": "0.25", "method.compress": "0.3",
	"runtime.simnet": "true", "runtime.deadline": "150ms", "runtime.quorum": "2", "runtime.dropout": "0.25",
	"faults.plan": "drop=0.2,crash=2,restart=1", "faults.population": "join=4@3,churn=0.1",
	"aggregation.rule": "trimmed:0.34", "aggregation.shards": "4",
	"aggregation.sampler": "floyd", "aggregation.mux-workers": "3",
	"codec.wire": "binary",
	"training.k": "12", "training.kt": "6", "training.rounds": "4", "training.planned-rounds": "9", "training.batch": "5",
	"training.iters": "3", "training.lr": "0.15", "training.val-examples": "60", "training.eval-every": "2", "training.parallelism": "2",
	"experiment.name": "table6", "experiment.scale": "0.5",
	"sweep.seeds": "[1, 2, 3]",
}

// keyLine renders one key as the document that sets only it.
func keyLine(f field, v string) string {
	if f.section == "" {
		return f.key + ": " + v + "\n"
	}
	return f.section + ":\n  " + f.key + ": " + v + "\n"
}

// Set is the file edited in place: for every schema key, Set(e, key, v)
// and the document carrying that one line canonicalize to the same bytes,
// starting from the default and from a document that already sets the key.
func TestSetMatchesParse(t *testing.T) {
	for _, f := range index.fields {
		id := keyID(f.section, f.key)
		v, ok := offDefault[id]
		if !ok {
			t.Errorf("%s: no offDefault value; add one", id)
			continue
		}
		if f.key == "version" {
			continue // a document declaring another version does not parse
		}
		fromDoc, err := Parse([]byte(keyLine(f, v)))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fromSet := Default()
		if err := Set(fromSet, id, v); err != nil {
			t.Fatalf("Set(%s, %q): %v", id, v, err)
		}
		if !bytes.Equal(fromSet.Canonical(), fromDoc.Canonical()) {
			t.Errorf("Set(%s, %q) differs from the document line:\n%s\nvs\n%s", id, v, fromSet.Canonical(), fromDoc.Canonical())
		}
		if bytes.Equal(fromSet.Canonical(), Default().Canonical()) {
			t.Errorf("Set(%s, %q) left the default unchanged", id, v)
		}
		// Later wins: overriding the edited document back lands on the default.
		if err := Set(fromDoc, id, f.get(Default())); err != nil {
			t.Fatalf("Set(%s) back to default: %v", id, err)
		}
		if !bytes.Equal(fromDoc.Canonical(), Default().Canonical()) {
			t.Errorf("a later Set(%s) did not win over the document's line", id)
		}
	}
}

// Set refuses what Parse refuses, and the message names the key.
func TestSetErrors(t *testing.T) {
	cases := []struct{ key, value, want string }{
		{"method.strength", "11", `unknown key "strength" in section method (have name, clip, sigma`},
		{"bogus.key", "1", `unknown section "bogus" (have data, method`},
		{"speed", "9", `unknown key "speed" in top level (have version, seed)`},
		{"method.sigma.x", "1", `unknown key "sigma.x" in section method`},
		{"method.sigma", "much", `method.sigma: not a number: "much"`},
		{"training.k", "twelve", `training.k: not an integer: "twelve"`},
		{"runtime.simnet", "yes", `runtime.simnet: not a boolean`},
		{"runtime.deadline", "soon", `runtime.deadline: not a duration`},
		{"sweep.seeds", "1,2", `sweep.seeds: not a list`},
		{"seed", "x", `seed: not an integer: "x"`},
		{"training.k", "", `training.k: not an integer: ""`},
		{"data.dataset", "\"open", `data.dataset: bad quoted string`},
		{"method.sigma", "NaN", `method.sigma: not a finite number: "NaN"`},
		{"method.clip", "+Inf", `method.clip: not a finite number: "+Inf"`},
		{"method.delta", "nan", `method.delta: not a finite number: "nan"`},
		{"training.lr", "NaN", `training.lr: not a finite number: "NaN"`},
		{"runtime.dropout", "NaN", `runtime.dropout: not a finite number: "NaN"`},
		{"method.compress", "-Inf", `method.compress: not a finite number: "-Inf"`},
		{"experiment.scale", "Inf", `experiment.scale: not a finite number: "Inf"`},
	}
	for _, tc := range cases {
		e := Default()
		err := Set(e, tc.key, tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Set(%q, %q) = %v, want error containing %q", tc.key, tc.value, err, tc.want)
		}
		if !reflect.DeepEqual(e, Default()) {
			t.Errorf("refused Set(%q, %q) still changed the experiment", tc.key, tc.value)
		}
	}
}

// Every key that describes the run must survive into core.Config: a key
// that parses, digests and is then dropped on the way to the engine is the
// silent-misbehaviour class Checkpoint.Resume once had. Exempt are the keys
// core never sees by design: the schema version, the deployment switch
// (fedtrain picks Run or RunSimnet from it), and the tables / sweep blocks.
func TestEveryKeyReachesCore(t *testing.T) {
	base := Default().CoreConfig()
	base.ConfigDigest = ""
	for _, f := range index.fields {
		id := keyID(f.section, f.key)
		if id == "version" || id == "runtime.simnet" || f.section == "experiment" || f.section == "sweep" {
			continue
		}
		e := Default()
		if err := Set(e, id, offDefault[id]); err != nil {
			t.Fatalf("Set(%s): %v", id, err)
		}
		cfg := e.CoreConfig()
		cfg.ConfigDigest = ""
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("%s = %s changes the digest but not core.Config: the key is dropped before the engine", id, offDefault[id])
		}
	}
}

// Moved names exactly the keys a document moved off the default, spelled as
// -set spells them; a default written out in full moves nothing.
func TestMoved(t *testing.T) {
	if got := Default().Moved(); len(got) != 0 {
		t.Fatalf("the default experiment moved %v", got)
	}
	e, err := Parse([]byte("seed: 7\ncodec:\n  wire: gob\ntraining:\n  k: 50\nexperiment:\n  name: table2\n  scale: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Moved(), []string{"seed", "training.k", "experiment.name"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Moved() = %v, want %v", got, want)
	}
}

// writeConfig drops a config document in a temp file.
func writeConfig(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "exp.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadArgs runs the loader the way a binary does: register, parse, Load.
func loadArgs(args ...string) (*Experiment, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("addr", "", "")
	var cf Flags
	cf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cf.Load()
}

// The loader every binary shares: no -config is Default, -set lines apply
// in order over the file, and the result equals the edited file — same
// canonical bytes, same digest.
func TestFlagsLoad(t *testing.T) {
	e, err := loadArgs("-addr", "x:1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, Default()) {
		t.Fatalf("no -config loaded %+v, want Default()", e)
	}

	file := writeConfig(t, "data:\n  dataset: cancer\nmethod:\n  sigma: 0.9\ntraining:\n  k: 12\n")
	edited := writeConfig(t, "seed: 7\ndata:\n  dataset: cancer\nmethod:\n  sigma: 0.01\ntraining:\n  k: 12\n")
	got, err := loadArgs("-config", file, "-set", "method.sigma=0.5", "-set", "seed=7", "-set", "method.sigma=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load(edited)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Canonical(), want.Canonical()) || got.Digest() != want.Digest() {
		t.Fatalf("-config + -set differs from the edited file:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
	if got.Training.K != 12 || got.Data.Dataset != "cancer" {
		t.Fatal("keys no -set named must keep the file's values")
	}
	// An empty value clears a string key: the override digests as the file
	// with the line deleted does, which is how a dial-in fleet runs a
	// config that carries a fault plan.
	planned := writeConfig(t, "data:\n  dataset: cancer\nfaults:\n  plan: drop=0.2,crash=2\n")
	clean := writeConfig(t, "data:\n  dataset: cancer\n")
	if got, err = loadArgs("-config", planned, "-set", "faults.plan="); err != nil {
		t.Fatal(err)
	}
	if want, err = Load(clean); err != nil {
		t.Fatal(err)
	}
	if got.Faults.Plan != "" || !bytes.Equal(got.Canonical(), want.Canonical()) || got.Digest() != want.Digest() {
		t.Fatalf("-set faults.plan= differs from the file without a plan:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
	// A value containing '=' splits at the first one only.
	if e, err = loadArgs("-set", "faults.plan=drop=0.2,crash=2"); err != nil || e.Faults.Plan != "drop=0.2,crash=2" {
		t.Fatalf("faults.plan = %q, %v", e.Faults.Plan, err)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "method.strength=1"}, `unknown key "strength" in section method`},
		{[]string{"-set", "method.sigma=lots"}, `method.sigma: not a number`},
		{[]string{"-set", "method.sigma"}, `invalid value "method.sigma" for flag -set: want section.key=value`},
		{[]string{"-set", "training.kt=99"}, "training.kt 99 exceeds training.k"},
		{[]string{"-config", filepath.Join(t.TempDir(), "absent.yaml")}, "absent.yaml"},
		{[]string{"-config", writeConfig(t, "method:\n  sigma: 1\n  sigma: 2\n")}, "line 3: duplicate key method.sigma"},
	} {
		if _, err := loadArgs(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestExpandSweep(t *testing.T) {
	e, err := Parse([]byte("sweep:\n  seeds: [3, 5, 8]\n"))
	if err != nil {
		t.Fatal(err)
	}
	runs := e.Expand()
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	digests := map[string]bool{}
	for i, want := range []int64{3, 5, 8} {
		if runs[i].Seed != want {
			t.Fatalf("run %d seed %d, want %d", i, runs[i].Seed, want)
		}
		if len(runs[i].Sweep.Seeds) != 0 {
			t.Fatalf("run %d still carries the sweep block", i)
		}
		digests[runs[i].Digest()] = true
	}
	if len(digests) != 3 {
		t.Fatal("sweep runs must have distinct digests (the seed is part of the identity)")
	}

	solo := Default()
	if runs := solo.Expand(); len(runs) != 1 || runs[0] != solo {
		t.Fatal("a sweepless config expands to itself")
	}
}

func TestRunSweep(t *testing.T) {
	e, _ := Parse([]byte("sweep:\n  seeds: [1, 2, 3, 4, 5]\n"))
	runs := e.Expand()

	var calls atomic.Int64
	got := make([]int64, len(runs))
	err := RunSweep(runs, 2, func(i int, r *Experiment) error {
		calls.Add(1)
		got[i] = r.Seed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("%d calls, want 5", calls.Load())
	}
	if !reflect.DeepEqual(got, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("results landed out of slot: %v", got)
	}

	err = RunSweep(runs, 0, func(i int, r *Experiment) error {
		if i%2 == 1 {
			return fmt.Errorf("run %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("sweep errors must surface")
	}
	for _, want := range []string{"run 1 failed", "run 3 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %v missing %q", err, want)
		}
	}
}

// Schema sanity: sections are declared, keys are unique, and every
// getter/setter pair is an exact round trip at the default value — the
// property Canonical relies on to re-parse.
func TestSchemaInvariants(t *testing.T) {
	secs := map[string]bool{}
	for _, s := range sectionOrder {
		secs[s] = true
	}
	keys := map[string]bool{}
	e := Default()
	for _, f := range index.fields {
		id := f.section + "." + f.key
		if !secs[f.section] {
			t.Errorf("%s: section not in sectionOrder", id)
		}
		if keys[id] {
			t.Errorf("%s: duplicate schema entry", id)
		}
		keys[id] = true
		v := f.get(e)
		if err := f.set(e, v); err != nil {
			t.Errorf("%s: set(get()) = %v", id, err)
		}
		if got := f.get(e); got != v {
			t.Errorf("%s: get∘set not identity: %q then %q", id, v, got)
		}
	}
}
