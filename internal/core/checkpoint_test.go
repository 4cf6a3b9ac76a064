package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

func checkpointBaseConfig() Config {
	return Config{
		Dataset: "cancer", Method: MethodFedCDPDecay,
		K: 8, Kt: 4, Rounds: 6, LocalIters: 5,
		Sigma: 0.1, ValExamples: 40, Seed: 42, EvalEvery: 1,
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	// A 6-round run must equal a 3-round run checkpointed and resumed for 3
	// more rounds, bit-for-bit — including for the decay schedule, which
	// depends on the absolute round index, and under every setting that
	// shapes the cohort draw, the client arithmetic or the fold: Resume
	// resolves the checkpointed Config exactly as Run does.
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"sampler=floyd", func(c *Config) { c.Sampler = fl.SamplerFloyd }},
		{"precision=fp32", func(c *Config) { c.Precision = tensor.PrecisionFP32 }},
		{"shards=1", func(c *Config) { c.Shards = 1 }},
		{"shards=4/fanout=2", func(c *Config) { c.Shards, c.TreeFanout = 4, 2 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			base := checkpointBaseConfig()
			v.mutate(&base)
			full, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			half := base
			half.Rounds = 3
			half.PlannedRounds = 6 // declare the full horizon for the decay schedule
			first, err := Run(half)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := CheckpointFrom(first).Resume(3)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digestTensors(resumed.Final.Params()), digestTensors(full.Final.Params()); got != want {
				t.Fatalf("resumed model digest %x, uninterrupted run %x", got, want)
			}
			// Privacy accounting covers the full composition.
			if full.FinalEpsilon() != resumed.FinalEpsilon() {
				t.Fatalf("resumed ε %v != full-run ε %v", resumed.FinalEpsilon(), full.FinalEpsilon())
			}
			// Round indices continue.
			if got := resumed.Rounds[0].Round; got != 3 {
				t.Fatalf("resumed first round = %d, want 3", got)
			}
		})
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	half := checkpointBaseConfig()
	half.Rounds = 2
	res, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := CheckpointFrom(res)
	var buf bytes.Buffer
	if err := ckpt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextRound != 2 || len(loaded.Params) != len(ckpt.Params) {
		t.Fatalf("loaded checkpoint mismatch: %+v", loaded.NextRound)
	}
	r1, err := ckpt.Resume(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Resume(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := r1.Final.Params(), r2.Final.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 0) {
			t.Fatal("resume from loaded checkpoint diverges")
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	half := checkpointBaseConfig()
	half.Rounds = 1
	res, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := CheckpointFrom(res).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextRound != 1 {
		t.Fatalf("NextRound = %d, want 1", loaded.NextRound)
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error for garbage checkpoint")
	}
	if _, err := LoadCheckpointFile("/nonexistent/path.ckpt"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestCheckpointUnknownDataset(t *testing.T) {
	c := &Checkpoint{Cfg: Config{Dataset: "nope"}}
	if _, err := c.Resume(1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}
