// Package config is the declarative experiment layer: one versioned,
// schema-validated file fully determines a run — seed, model precision,
// dataset and heterogeneity scenario, privacy method, deployment with
// deadline/quorum, fault and adversary plan,
// aggregation rule/topology/sampler, wire codec, and training horizon.
//
// The format is a strict YAML subset (see Parse): unindented section
// headers, indented "key: value" lines, full-line comments. An omitted key
// or section means today's command-line flag default, so the empty
// document is the default fedtrain run; unknown keys, duplicate keys and
// unsupported schema versions are rejected with line numbers rather than
// ignored.
//
// Every experiment has a canonical serialized form (Canonical) — all
// fields explicit, fixed key order, enum defaults spelled out — and its
// FNV-1a digest (Digest) is the experiment's identity. The digest is
// stamped into core.Config, travels in the wire RoundConfig to remote
// clients (which can refuse a mismatched server via
// fl.ClientOptions.ExpectDigest), rides in checkpoints, and is printed on
// experiment reports, so any artifact can be traced back to the exact
// config that produced it.
//
// The five cmd binaries accept -config <file>; flags given alongside it
// are overrides, re-stamped into the effective experiment field-by-field
// (ApplyFlagOverrides) before the digest is computed — the digest always
// names what actually ran. A sweep block expands one file into parallel
// multi-seed runs (Expand, RunSweep).
package config
