package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
)

// Checkpoint captures a federated run mid-flight: the global model, the
// round counter, and the privacy spending so far. Because every stochastic
// component is seeded deterministically by (seed, round, client), resuming
// from a checkpoint reproduces the uninterrupted run bit-for-bit
// (TestCheckpointResumeEquivalence).
type Checkpoint struct {
	Cfg       Config
	NextRound int
	Params    []fl.TensorWire
}

// CheckpointFrom snapshots a finished (or partial) run for later resumption.
func CheckpointFrom(res *Result) *Checkpoint {
	return &Checkpoint{
		Cfg:       res.Cfg,
		NextRound: res.Cfg.Rounds, // rounds completed so far in this config
		Params:    fl.WireFromTensors(res.Final.Params()),
	}
}

// Save writes the checkpoint with gob encoding.
func (c *Checkpoint) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &c, nil
}

// SaveFile writes the checkpoint to a file.
func (c *Checkpoint) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint from a file.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return LoadCheckpoint(bytes.NewReader(b))
}

// Resume continues a checkpointed run for `rounds` more federated rounds
// and returns the combined result. Privacy accounting covers the full
// history (checkpointed rounds plus the new ones).
func (c *Checkpoint) Resume(rounds int) (*Result, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("core: resume needs a positive round count, got %d", rounds)
	}
	// The resumed segment is resolved exactly as core.Run resolves the
	// checkpointed Config — same partition, precision, sampler, fold and
	// plan — continued from the checkpoint's round and parameters.
	cfg := c.Cfg
	cfg.Rounds = rounds
	r, err := cfg.resolve(c.NextRound, cfg.PlannedRounds, fl.TensorsFromWire(c.Params))
	if err != nil {
		return nil, err
	}
	hist, err := fl.Run(r.FL)
	if err != nil {
		return nil, err
	}
	// Account for the full composition: checkpointed + resumed rounds.
	full := r.Cfg
	full.Rounds = c.NextRound + rounds
	annotateEpsilonOffset(full, r.Spec, hist, c.NextRound, fl.PopulationOf(full.K, r.Plan))
	return &Result{History: hist, Spec: r.Spec, Cfg: full}, nil
}

// annotateEpsilonOffset is annotateEpsilon for a resumed run: it first
// composes the checkpointed rounds, then annotates the new ones. The
// checkpoint records parameters, not per-round commit outcomes, so the
// checkpointed prefix is charged as committed — the sound (upper-bound)
// assumption for rounds whose effect is already in the resumed parameters.
func annotateEpsilonOffset(cfg Config, spec dataset.Spec, hist *fl.History, skip int, pop fl.Population) {
	tmp := fl.History{Rounds: make([]fl.RoundStats, skip+len(hist.Rounds))}
	for i := 0; i < skip; i++ {
		tmp.Rounds[i].Round = i
		tmp.Rounds[i].Committed = true
	}
	copy(tmp.Rounds[skip:], hist.Rounds)
	annotateEpsilon(cfg, spec, &tmp, pop)
	for i := range hist.Rounds {
		hist.Rounds[i].Epsilon = tmp.Rounds[skip+i].Epsilon
	}
}
