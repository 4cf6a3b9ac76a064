package config

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzConfigParse drives arbitrary documents through the parser and holds
// the canonicalization contract on everything that parses: the canonical
// form must itself parse, re-canonicalize to the same bytes, and keep the
// same digest. The same bytes are then fed line by line to Set as -set
// key=value assignments, under the same contract. Neither may panic,
// whatever the bytes.
func FuzzConfigParse(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("version: 1\nseed: 42\n"))
	f.Add([]byte("method:\n  name: fedcdp\n  sigma: 0.06\n"))
	f.Add([]byte("data:\n  dataset: cancer\n  scenario: dirichlet\n  alpha: 0.1\n"))
	f.Add([]byte("runtime:\n  simnet: true\n  deadline: 150ms\n"))
	f.Add([]byte("sweep:\n  seeds: [1, 2, 3]\n"))
	f.Add([]byte("data:\n  dataset: \"cancer\"\n"))
	f.Add([]byte("faults:\n  plan: drop=0.2,crash=2,restart=1\n"))
	f.Add([]byte("bogus:\n  key: value\n"))
	f.Add([]byte("method:\n\tsigma: 1\n"))
	f.Add([]byte(": x\n seed : 1\nseed:2\n"))
	f.Add(Default().Canonical())
	f.Add([]byte("method.sigma=0.1\nseed=7\nfaults.plan=drop=0.2,crash=2"))
	f.Add([]byte("sweep.seeds=[1, 2]\nruntime.deadline=150ms\ndata.scenario=\"\""))
	f.Add([]byte("method.strength=1\n=\nseed\n.=\nmethod.=x\n.seed=1"))

	f.Fuzz(func(t *testing.T, doc []byte) {
		if e, err := Parse(doc); err == nil {
			checkCanonical(t, e, doc)
		}
		e := Default()
		for _, line := range strings.Split(string(doc), "\n") {
			if key, value, ok := strings.Cut(line, "="); ok {
				_ = Set(e, key, value) // rejection is a valid outcome; panics are not
			}
		}
		if e.Version == Version { // another version is Validate's to refuse; its canonical form does not parse
			checkCanonical(t, e, doc)
		}
	})
}

func checkCanonical(t *testing.T, e *Experiment, doc []byte) {
	t.Helper()
	canon := e.Canonical()
	e2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form of an accepted input does not re-parse: %v\ninput: %q\ncanonical:\n%s", err, doc, canon)
	}
	if !bytes.Equal(e2.Canonical(), canon) {
		t.Fatalf("canonicalization not idempotent for input %q", doc)
	}
	if e2.Digest() != e.Digest() {
		t.Fatalf("digest unstable across canonical round trip for input %q", doc)
	}
}
