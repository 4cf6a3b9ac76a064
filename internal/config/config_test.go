package config

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedcdp/internal/core"
	"fedcdp/internal/fl"
)

// The empty document is the default fedtrain invocation: Parse of nothing
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

model:
  precision: fp32

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
  quant: 8

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
	want.Model = ModelBlock{Precision: "fp32"}
	want.Data = DataBlock{Dataset: "cancer", Scenario: "dirichlet", Alpha: 0.1}
	want.Method.Name = core.MethodFedSDPSrv
	want.Method.Clip = 2.5
	want.Method.Sigma = 0.05
	want.Runtime = RuntimeBlock{Deadline: 150 * time.Millisecond, Quorum: 2, Dropout: 0.25}
	want.Faults = FaultsBlock{Plan: "drop=0.2,crash=1"}
	want.Aggregation = AggregationBlock{Rule: "trimmed:0.34", Shards: 4, Sampler: fl.SamplerFloyd}
	want.Codec = CodecBlock{Wire: fl.CodecBinary, Quant: 8}
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
		{"removed model.engine", "model:\n  engine: batched\n", `line 2: unknown key "engine" in section model`},
		{"removed method.noise-engine", "method:\n  sigma: 1\n  noise-engine: counter\n", `line 3: unknown key "noise-engine" in section method`},
		{"removed runtime.name", "runtime:\n  name: streaming\n", `line 2: unknown key "name" in section runtime`},
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
model:
  precision: fp32
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
			case "precision":
				v = "fp32"
			case "rule":
				v = fl.AggMedian
			case "sampler":
				v = fl.SamplerFloyd
			case "wire":
				v = fl.CodecBinary
			case "quant":
				v = "8"
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
		{"unknown precision", func(e *Experiment) { e.Model.Precision = "fp16" }, "unknown model.precision"},
		{"unknown sampler", func(e *Experiment) { e.Aggregation.Sampler = "knuth" }, "unknown aggregation.sampler"},
		{"unknown codec", func(e *Experiment) { e.Codec.Wire = "json" }, "unknown codec.wire"},
		{"bad quant", func(e *Experiment) { e.Codec.Quant = 4 }, "codec.quant"},
		{"quant under simnet", func(e *Experiment) { e.Codec.Quant, e.Runtime.Simnet = 8, true }, "not plumbed into runtime.simnet"},
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

// CoreConfig and FromCore are inverses over the fields core.Config carries:
// resolving a config to a run and lifting it back must preserve the digest,
// so flag-built and file-built descriptions of the same run are one identity.
func TestCoreConfigFromCoreRoundTrip(t *testing.T) {
	e, err := Parse([]byte(`seed: 11
data:
  dataset: cancer
  scenario: dirichlet
  alpha: 0.1
method:
  name: fedcdp
  sigma: 0.06
runtime:
  quorum: 1
faults:
  plan: drop=0.2,crash=2,restart=1
aggregation:
  rule: median
codec:
  wire: binary
training:
  k: 12
  kt: 6
  rounds: 4
  iters: 3
`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.CoreConfig()
	if cfg.ConfigDigest != e.Digest() {
		t.Fatalf("CoreConfig digest %q, want %q", cfg.ConfigDigest, e.Digest())
	}
	back := FromCore(cfg, false)
	if back.Digest() != e.Digest() {
		t.Fatalf("FromCore(CoreConfig(e)) digest %s, want %s\nlifted:\n%s\noriginal:\n%s",
			back.Digest(), e.Digest(), back.Canonical(), e.Canonical())
	}
}

func TestOverride(t *testing.T) {
	dst, src := Default(), Default()
	src.Method.Sigma = 0.5
	src.Data.Dataset = "cancer"
	if !Override(dst, "sigma", src) {
		t.Fatal("sigma is a config-mapped flag")
	}
	if dst.Method.Sigma != 0.5 {
		t.Fatalf("sigma not copied: %v", dst.Method.Sigma)
	}
	if dst.Data.Dataset != "mnist" {
		t.Fatal("Override copied a flag that was not named")
	}
	if Override(dst, "addr", src) {
		t.Fatal("-addr has no config meaning and must be left to the binary")
	}
}

// ApplyFlagOverrides re-stamps exactly the flags the user passed — set
// flags win over the file, untouched flags do not.
func TestApplyFlagOverrides(t *testing.T) {
	fileDoc := "data:\n  dataset: cancer\nmethod:\n  sigma: 0.9\ntraining:\n  k: 12\n"
	dst, err := Parse([]byte(fileDoc))
	if err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sigma := fs.Float64("sigma", 0.06, "")
	fs.Int("k", 16, "")
	fs.String("addr", "", "")
	if err := fs.Parse([]string{"-sigma", "0.01", "-addr", "x:1"}); err != nil {
		t.Fatal(err)
	}
	src := Default()
	src.Method.Sigma = *sigma

	applied := ApplyFlagOverrides(fs, dst, src)
	if !reflect.DeepEqual(applied, []string{"sigma"}) {
		t.Fatalf("applied %v, want [sigma]", applied)
	}
	if dst.Method.Sigma != 0.01 {
		t.Fatalf("passed flag must win over the file: sigma %v", dst.Method.Sigma)
	}
	if dst.Training.K != 12 || dst.Data.Dataset != "cancer" {
		t.Fatal("unpassed flags must not clobber file values")
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

// Schema sanity: sections are declared, flags are unique, and every
// getter/setter pair is an exact round trip at the default value — the
// property Override relies on to never fail.
func TestSchemaInvariants(t *testing.T) {
	secs := map[string]bool{}
	for _, s := range sectionOrder {
		secs[s] = true
	}
	flags := map[string]string{}
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
		if f.flag != "" {
			if prev, dup := flags[f.flag]; dup {
				t.Errorf("flag -%s mapped by both %s and %s", f.flag, prev, id)
			}
			flags[f.flag] = id
		}
		v := f.get(e)
		if err := f.set(e, v); err != nil {
			t.Errorf("%s: set(get()) = %v", id, err)
		}
		if got := f.get(e); got != v {
			t.Errorf("%s: get∘set not identity: %q then %q", id, v, got)
		}
	}
}
