package config_test

// Golden-config tests: the checked-in files under configs/ must determine
// exactly the runs the repo's acceptance tests pin. Each test loads the
// file, resolves it to a core.Config, and asserts (a) the resolved config
// is field-for-field the flag-assembled one from the original acceptance
// test, and (b) running both paths produces bit-identical models — final
// FNV-1a parameter digest and ε — so the digest stamped by the config path
// is provably pure metadata.

import (
	"math"
	"reflect"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// digestParams is the same FNV-1a fold over the final model the core
// acceptance tests use to fingerprint a run.
func digestParams(ts []*tensor.Tensor) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, t := range ts {
		for _, v := range t.Data() {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// fillRunDefaults resolves the zero hyperparameters core.Run itself
// defaults (withDefaults): the acceptance-test literals leave them zero,
// the config layer spells the same values out (config.Default), and both
// paths hand the run identical numbers.
func fillRunDefaults(c core.Config) core.Config {
	if c.Clip == 0 {
		c.Clip = 4
	}
	if c.DecayFrom == 0 {
		c.DecayFrom = 6
	}
	if c.DecayTo == 0 {
		c.DecayTo = 2
	}
	if c.ShareFraction == 0 {
		c.ShareFraction = 0.1
	}
	return c
}

// sameRunModuloDigest strips the stamped digest and compares the two
// resolved configs field-for-field: the config file and the flag set must
// describe the identical run.
func sameRunModuloDigest(t *testing.T, fromFile, fromFlags core.Config) {
	t.Helper()
	stripped := fillRunDefaults(fromFile)
	stripped.ConfigDigest = ""
	fromFlags = fillRunDefaults(fromFlags)
	if !reflect.DeepEqual(stripped, fromFlags) {
		t.Fatalf("config file resolves to a different run than the flags:\nfile:  %+v\nflags: %+v", stripped, fromFlags)
	}
	if fromFile.ConfigDigest == "" {
		t.Fatal("config-loaded run carries no digest")
	}
}

// TestGoldenFaultAcceptanceConfig pins configs/fault-acceptance.yaml to the
// PR 5 fault-matrix acceptance scenario (acceptanceConfig in core's
// simnet_test.go): same resolved config, same final-model bits, same ε.
func TestGoldenFaultAcceptanceConfig(t *testing.T) {
	e, err := config.Load("../../configs/fault-acceptance.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	flagCfg := core.Config{
		Dataset: "cancer",
		Method:  core.MethodFedCDP,
		K:       12, Kt: 6, Rounds: 4,
		LocalIters:  3,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 60,
		EvalEvery:   1,
		Scenario:    dataset.Scenario{Name: "dirichlet", Alpha: 0.1},
		Faults:      "drop=0.2,crash=2,restart=1",
		MinQuorum:   1,
	}
	fileCfg := e.CoreConfig()
	sameRunModuloDigest(t, fileCfg, flagCfg)

	fromFile, err := core.Run(fileCfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := core.Run(flagCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestParams(fromFile.Final.Params()), digestParams(fromFlags.Final.Params()); d1 != d2 {
		t.Fatalf("config path final-model digest %x differs from flag path %x", d1, d2)
	}
	if e1, e2 := fromFile.FinalEpsilon(), fromFlags.FinalEpsilon(); e1 != e2 {
		t.Fatalf("config path ε %v differs from flag path %v", e1, e2)
	}
}

// TestGoldenScale100kConfig pins configs/scale-100k.yaml to the PR 7
// K=100,000 hierarchical simnet deployment (TestSimnetScale100k). Skipped
// under -short like the original.
func TestGoldenScale100kConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("K=100k deployment skipped in -short")
	}
	e, err := config.Load("../../configs/scale-100k.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if !e.Runtime.Simnet {
		t.Fatal("scale config must deploy over the simnet fabric")
	}
	flagCfg := core.Config{
		Dataset: "cancer",
		Method:  core.MethodFedCDP,
		K:       100_000, Kt: 1000, Rounds: 2,
		LocalIters:  1,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 40,
		EvalEvery:   1,
		MinQuorum:   1,
		Shards:      32,
		Sampler:     fl.SamplerFloyd,
		Codec:       fl.CodecBinary,
	}
	fileCfg := e.CoreConfig()
	sameRunModuloDigest(t, fileCfg, flagCfg)

	fromFile, err := core.RunSimnet(fileCfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := core.RunSimnet(flagCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestParams(fromFile.Final.Params()), digestParams(fromFlags.Final.Params()); d1 != d2 {
		t.Fatalf("config path final-model digest %x differs from flag path %x", d1, d2)
	}
	if e1, e2 := fromFile.FinalEpsilon(), fromFlags.FinalEpsilon(); e1 != e2 {
		t.Fatalf("config path ε %v differs from flag path %v", e1, e2)
	}
	var w1, w2 int64
	for _, r := range fromFile.Rounds {
		w1 += r.WireBytes
	}
	for _, r := range fromFlags.Rounds {
		w2 += r.WireBytes
	}
	// The config path carries the digest in every wire announcement — pure
	// metadata, so the models above are bit-identical, but the byte count
	// is strictly higher than the digest-less flag path's.
	if w1 <= w2 {
		t.Fatalf("config path moved %d wire bytes, flag path %d; want strictly more (digest overhead)", w1, w2)
	}
}
