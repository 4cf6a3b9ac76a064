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
	cfg := c.Cfg
	spec, err := dataset.Get(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(spec)
	strat, err := cfg.Strategy()
	if err != nil {
		return nil, err
	}
	horizon := c.NextRound + rounds
	if cfg.PlannedRounds > horizon {
		horizon = cfg.PlannedRounds
	}
	// Rebuild the data and runtime exactly as core.Run would from the
	// checkpointed Config: the resumed segment must train on the same
	// partition, engines and aggregation rule as the segment it continues.
	part, err := cfg.Scenario.Partitioner()
	if err != nil {
		return nil, err
	}
	ds := dataset.NewPartitioned(spec, cfg.Seed, part)
	// The fault plan binds over the whole horizon, so a resumed run meets
	// exactly the failures the uninterrupted run would have met.
	faults, err := cfg.faultPlan(horizon)
	if err != nil {
		return nil, err
	}
	hist, err := fl.Run(fl.Config{
		Data:  ds,
		Model: spec.ModelSpec(),
		K:     cfg.K, Kt: cfg.Kt, Rounds: rounds,
		Round: fl.RoundConfig{
			BatchSize:    cfg.BatchSize,
			LocalIters:   cfg.LocalIters,
			LR:           cfg.LR,
			ConfigDigest: cfg.ConfigDigest,
		},
		Strategy:        strat,
		Aggregation:     cfg.Aggregation,
		Seed:            cfg.Seed,
		ValExamples:     cfg.ValExamples,
		EvalEvery:       cfg.EvalEvery,
		Parallelism:     cfg.Parallelism,
		InitialParams:   fl.TensorsFromWire(c.Params),
		StartRound:      c.NextRound,
		ScheduleHorizon: horizon,
		DropoutRate:     cfg.DropoutRate,
		RoundDeadline:   cfg.RoundDeadline,
		MinQuorum:       cfg.MinQuorum,
		Faults:          faults,
	})
	if err != nil {
		return nil, err
	}
	// Account for the full composition: checkpointed + resumed rounds.
	full := cfg
	full.Rounds = c.NextRound + rounds
	annotateEpsilonOffset(full, spec, hist, c.NextRound, fl.PopulationOf(cfg.K, faults))
	res := &Result{History: hist, Spec: spec, Cfg: full}
	return res, nil
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
