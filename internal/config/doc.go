// Package config is the declarative experiment layer: one versioned,
// schema-validated file fully determines a run — seed, dataset and
// heterogeneity scenario, privacy method, deployment with deadline/quorum,
// fault and adversary plan, aggregation rule/topology/sampler, wire codec,
// and training horizon.
//
// The format is a strict YAML subset (see Parse): unindented section
// headers, indented "key: value" lines, full-line comments. An omitted key
// or section means its value in Default, so the empty document is the
// default run; unknown keys, duplicate keys and unsupported schema versions
// are rejected with line numbers rather than ignored.
//
// Every experiment has a canonical serialized form (Canonical) — all
// fields explicit, fixed key order, enum defaults spelled out — and its
// FNV-1a digest (Digest) is the experiment's identity. The digest is
// stamped into core.Config, travels in the wire RoundConfig to remote
// clients (which refuse a mismatched server via
// fl.ClientOptions.ExpectDigest), rides in checkpoints, and is printed on
// experiment reports, so any artifact can be traced back to the exact
// config that produced it.
//
// The file is the command-line interface too. The five cmd binaries share
// one loader (Flags): -config <file>, absent meaning Default, plus a
// repeatable -set section.key=value that goes through the same setter as a
// document line (Set) and the same Validate — so an override is type
// checked, refused by name, and digested exactly as if the file had been
// edited. No binary has a flag that respells a schema key:
//
//	fedtrain -config configs/fault-acceptance.yaml -set method.sigma=0.1
//
// A sweep block expands one file into parallel multi-seed runs (Expand,
// RunSweep).
package config
