package config

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// normalized returns a copy with every enum default spelled out by its
// concrete name, so documents that determine the same run — one saying
// "wire: gob", one omitting the key, one writing "" — share one
// canonical form and therefore one digest. Normalization never changes
// what a run computes: each empty name and its concrete default are pinned
// bit-identical by the packages that consume them (see e.g.
// core.TestIIDScenarioReproducesDefault).
func (e *Experiment) normalized() *Experiment {
	c := *e
	def := func(p *string, name string) {
		if *p == "" {
			*p = name
		}
	}
	def(&c.Model.Precision, tensor.PrecisionFP64)
	def(&c.Data.Dataset, "mnist")
	def(&c.Data.Scenario, dataset.ScenarioIID)
	def(&c.Method.Name, core.MethodFedCDP)
	def(&c.Aggregation.Rule, fl.AggFedSGD)
	def(&c.Aggregation.Sampler, fl.SamplerLegacy)
	def(&c.Codec.Wire, fl.CodecGob)
	if c.Experiment.Scale == 0 {
		c.Experiment.Scale = 1
	}
	return &c
}

// Canonical renders the experiment in its canonical serialized form: every
// field explicit, sections and keys in schema order, enum defaults
// normalized to their concrete names, scalars in shortest exact
// representation. Two documents that parse to the same experiment always
// canonicalize to the same bytes regardless of key order, comments or
// formatting, and Parse(Canonical(e)) reproduces e (modulo normalization).
func (e *Experiment) Canonical() []byte {
	c := e.normalized()
	var b bytes.Buffer
	b.WriteString("# fedcdp experiment config (canonical form)\n")
	for _, sec := range sectionOrder {
		if sec != "" {
			fmt.Fprintf(&b, "\n%s:\n", sec)
		}
		for _, f := range index.fields {
			if f.section != sec {
				continue
			}
			if sec == "" {
				fmt.Fprintf(&b, "%s: %s\n", f.key, f.get(c))
			} else {
				fmt.Fprintf(&b, "  %s: %s\n", f.key, f.get(c))
			}
		}
	}
	return b.Bytes()
}

// Moved lists, as -set spells them and in schema order, the keys whose
// canonical value differs from Default()'s — what the user chose, as opposed
// to inherited. cmd/tables' drivers use it to refuse a key they set
// themselves rather than silently override it.
func (e *Experiment) Moved() []string {
	c, d := e.normalized(), Default().normalized()
	var out []string
	for _, f := range index.fields {
		if f.get(c) != f.get(d) {
			out = append(out, keyID(f.section, f.key))
		}
	}
	return out
}

// Digest is the experiment's identity: the FNV-1a 64 hash of its canonical
// form, rendered as 16 hex digits. It is stamped into reports, checkpoints
// and the wire RoundConfig so resumed and remote runs can verify they are
// executing the same experiment.
func (e *Experiment) Digest() string {
	h := fnv.New64a()
	h.Write(e.Canonical())
	return fmt.Sprintf("%016x", h.Sum64())
}
