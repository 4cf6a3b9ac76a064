package config

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
)

// Version is the config schema version this package reads and writes.
// Parsing rejects any other declared version, so an old binary fails loudly
// on a future config instead of silently dropping fields.
const Version = 1

// Experiment is one fully-determined experiment: every axis of a run, as
// a declarative document. An omitted key or section means its value in
// Default(), so an empty config file IS the run every binary makes when
// given no -config.
//
// The canonical serialized form (Canonical) resolves defaults, fixes key
// order and normalizes values, so Digest is a stable identity for the
// experiment: two documents that determine the same run digest identically
// regardless of formatting, comments or key order.
type Experiment struct {
	// Version is the schema version; only Version (=1) is accepted.
	Version int
	// Seed is the root seed every stochastic component derives from.
	Seed int64

	Data        DataBlock
	Method      MethodBlock
	Runtime     RuntimeBlock
	Faults      FaultsBlock
	Aggregation AggregationBlock
	Codec       CodecBlock
	Training    TrainingBlock
	Experiment  ExperimentBlock
	Sweep       SweepBlock
}

// DataBlock names the benchmark and its heterogeneity scenario.
type DataBlock struct {
	Dataset  string  // benchmark name (Table I)
	Scenario string  // partitioner scenario ("" = iid)
	Alpha    float64 // dirichlet concentration (0 = scenario default)
	Shards   int     // pathological label shards per client (0 = default)
	Period   int     // rounds per stage for time-varying scenarios (0 = default)
}

// MethodBlock is the privacy method and its parameters.
type MethodBlock struct {
	Name            string
	Clip            float64
	Sigma           float64
	AccountantSigma float64 // 0 = account with the training σ
	Delta           float64 // 0 = core default (1e-5)
	DecayFrom       float64
	DecayTo         float64
	ShareFraction   float64
	Compress        float64 // gradient prune ratio (0 = off)
}

// RuntimeBlock selects the deployment and its failure posture.
type RuntimeBlock struct {
	Simnet   bool          // deploy over the in-memory simnet fabric
	Deadline time.Duration // per-round straggler cutoff (0 = wait)
	Quorum   int           // minimum folded updates to commit
	Dropout  float64       // per-round client dropout probability
}

// FaultsBlock is the deterministic fault/adversary plan and the open-world
// population plan. Both use the simnet grammar; core concatenates them into
// one bound plan.
type FaultsBlock struct {
	Plan       string // simnet grammar, e.g. "drop=0.2,crash=2,restart=1"
	Population string // population clauses, e.g. "join=4@3,leave=2@6,churn=0.1"
}

// AggregationBlock is the server fold rule and topology.
type AggregationBlock struct {
	Rule       string // "" (fedsgd), fedavg, weighted, median, trimmed[:β], krum[:f]
	Shards     int    // 0 = float fold, ≥1 = exact fold; ≥2 on the simnet fabric = edge tree
	Sampler    string // "" (legacy) or "floyd"
	MuxWorkers int
}

// CodecBlock is the wire encoding.
type CodecBlock struct {
	Wire string // "" (gob) or "binary"
}

// TrainingBlock is the federation shape and horizon.
type TrainingBlock struct {
	K             int
	Kt            int
	Rounds        int
	PlannedRounds int
	BatchSize     int
	LocalIters    int
	LR            float64
	ValExamples   int
	EvalEvery     int
	Parallelism   int
}

// ExperimentBlock, when Name is set, runs a cmd/tables experiment driver
// (table1..table7, fig1..fig5, faults, byzantine) instead of a single
// training run.
type ExperimentBlock struct {
	Name  string
	Scale float64
}

// SweepBlock expands one config into a multi-run sweep, executed in
// parallel across cores (see Expand and RunSweep).
type SweepBlock struct {
	Seeds []int64
}

// Default returns the experiment an empty document means, and the one
// every binary runs without -config.
func Default() *Experiment {
	return &Experiment{
		Version: Version,
		Seed:    42,
		Data:    DataBlock{Dataset: "mnist"},
		Method: MethodBlock{
			Name:          core.MethodFedCDP,
			Clip:          4,
			Sigma:         0.06,
			DecayFrom:     6,
			DecayTo:       2,
			ShareFraction: 0.1,
		},
		Training: TrainingBlock{
			K:           16,
			Kt:          8,
			Rounds:      20,
			LocalIters:  20,
			ValExamples: 300,
			EvalEvery:   1,
		},
		Experiment: ExperimentBlock{Scale: 1},
	}
}

// Load reads and parses a config file.
func Load(path string) (*Experiment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	e, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return e, nil
}

// Flags is how every binary names its experiment on the command line:
// -config <file> (absent means Default) and a repeatable -set
// section.key=value (top level: -set seed=7), applied in order over the
// file. Register it on the binary's FlagSet, parse, then Load.
type Flags struct {
	Path string   // -config
	Sets []string // -set assignments, in command-line order
}

// Register declares -config and -set on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Path, "config", "", "experiment config `file` (absent = the default experiment; see DESIGN.md, \"Experiment configs\")")
	fs.Func("set", "override one config key, as `section.key=value` (top level: seed=7); repeatable, later wins", func(s string) error {
		if !strings.Contains(s, "=") {
			return fmt.Errorf("want section.key=value")
		}
		f.Sets = append(f.Sets, s)
		return nil
	})
}

// Load resolves the flags into the validated experiment: the file (or
// Default), then each -set through Set. An override is therefore type
// checked, refused by name, and reflected in the digest exactly as if the
// line had been edited in the file.
func (f *Flags) Load() (*Experiment, error) {
	e := Default()
	if f.Path != "" {
		var err error
		if e, err = Load(f.Path); err != nil {
			return nil, err
		}
	}
	for _, s := range f.Sets {
		key, value, _ := strings.Cut(s, "=")
		if err := Set(e, key, value); err != nil {
			return nil, err
		}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// Validate checks every enum and range against the packages that consume
// the value, so a config error surfaces before any training starts.
func (e *Experiment) Validate() error {
	if e.Version != Version {
		return fmt.Errorf("config: unsupported version %d (this build reads version %d)", e.Version, Version)
	}
	if e.Data.Dataset == "" {
		return fmt.Errorf("config: data.dataset must be set")
	}
	if _, err := dataset.Get(e.Data.Dataset); err != nil {
		return fmt.Errorf("config: data.dataset: %w", err)
	}
	if e.Method.Name != "" && !slices.Contains(core.Methods(), e.Method.Name) {
		return fmt.Errorf("config: unknown method.name %q (have %v)", e.Method.Name, core.Methods())
	}
	samplers := []string{fl.SamplerLegacy, fl.SamplerFloyd}
	if e.Aggregation.Sampler != "" && !slices.Contains(samplers, e.Aggregation.Sampler) {
		return fmt.Errorf("config: unknown aggregation.sampler %q (have %v)", e.Aggregation.Sampler, samplers)
	}
	if !fl.ValidCodec(e.Codec.Wire) {
		return fmt.Errorf("config: unknown codec.wire %q", e.Codec.Wire)
	}
	if err := core.ServerSanitizeRefusal(e.Method.Name, "runtime.simnet's"); e.Runtime.Simnet && err != nil {
		return fmt.Errorf("config: method.name: %w", err)
	}
	if e.Runtime.Simnet && e.Runtime.Deadline != 0 {
		return fmt.Errorf("config: runtime.deadline %v cannot run under runtime.simnet, whose clock is virtual (it moves only when a message is delivered, so no straggler ever crosses a cutoff); stragglers there come from the faults.plan crash, drop and latency clauses", e.Runtime.Deadline)
	}
	if !fl.ValidAggregation(e.Aggregation.Rule) {
		return fmt.Errorf("config: unknown aggregation.rule %q", e.Aggregation.Rule)
	}
	if _, err := e.scenario().Partitioner(); err != nil {
		return fmt.Errorf("config: data.scenario: %w", err)
	}
	if _, err := simnet.ParsePlan(e.Faults.Plan); err != nil {
		return fmt.Errorf("config: faults.plan: %w", err)
	}
	if _, err := simnet.ParsePlan(e.Faults.Population); err != nil {
		return fmt.Errorf("config: faults.population: %w", err)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"training.k", e.Training.K},
		{"training.kt", e.Training.Kt},
		{"training.rounds", e.Training.Rounds},
		{"training.planned-rounds", e.Training.PlannedRounds},
		{"training.batch", e.Training.BatchSize},
		{"training.iters", e.Training.LocalIters},
		{"training.val-examples", e.Training.ValExamples},
		{"training.eval-every", e.Training.EvalEvery},
		{"training.parallelism", e.Training.Parallelism},
		{"runtime.quorum", e.Runtime.Quorum},
		{"aggregation.shards", e.Aggregation.Shards},
		{"aggregation.mux-workers", e.Aggregation.MuxWorkers},
		{"data.shards", e.Data.Shards},
		{"data.period", e.Data.Period},
	} {
		if c.v < 0 {
			return fmt.Errorf("config: %s must be non-negative, got %d", c.name, c.v)
		}
	}
	if e.Training.K > 0 && e.Training.Kt > e.Training.K {
		return fmt.Errorf("config: training.kt %d exceeds training.k %d", e.Training.Kt, e.Training.K)
	}
	if e.Training.Kt > 0 && e.Runtime.Quorum > e.Training.Kt {
		return fmt.Errorf("config: runtime.quorum %d exceeds training.kt %d", e.Runtime.Quorum, e.Training.Kt)
	}
	if e.Runtime.Dropout < 0 || e.Runtime.Dropout > 1 {
		return fmt.Errorf("config: runtime.dropout %v outside [0, 1]", e.Runtime.Dropout)
	}
	if e.Method.Compress < 0 || e.Method.Compress >= 1 {
		return fmt.Errorf("config: method.compress %v outside [0, 1)", e.Method.Compress)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"method.clip", e.Method.Clip},
		{"method.sigma", e.Method.Sigma},
		{"method.accountant-sigma", e.Method.AccountantSigma},
		{"method.delta", e.Method.Delta},
		{"data.alpha", e.Data.Alpha},
		{"training.lr", e.Training.LR},
	} {
		if c.v < 0 {
			return fmt.Errorf("config: %s must be non-negative, got %v", c.name, c.v)
		}
	}
	if e.Experiment.Scale < 0 {
		return fmt.Errorf("config: experiment.scale must be non-negative, got %v", e.Experiment.Scale)
	}
	if e.Runtime.Simnet && e.Experiment.Name != "" {
		return fmt.Errorf("config: experiment.name %q cannot run under runtime.simnet (experiment drivers orchestrate their own runs)", e.Experiment.Name)
	}
	return nil
}

// scenario is the data block's heterogeneity scenario, as Validate checks it
// and CoreConfig passes it on.
func (e *Experiment) scenario() dataset.Scenario {
	return dataset.Scenario{Name: e.Data.Scenario, Alpha: e.Data.Alpha, Shards: e.Data.Shards, Period: e.Data.Period}
}

// CoreConfig resolves the experiment into a core.Config, stamped with the
// config's digest so every report, checkpoint and wire round announcement
// derived from the run carries the experiment identity.
func (e *Experiment) CoreConfig() core.Config {
	return core.Config{
		Dataset:         e.Data.Dataset,
		Method:          e.Method.Name,
		K:               e.Training.K,
		Kt:              e.Training.Kt,
		Rounds:          e.Training.Rounds,
		PlannedRounds:   e.Training.PlannedRounds,
		BatchSize:       e.Training.BatchSize,
		LocalIters:      e.Training.LocalIters,
		LR:              e.Training.LR,
		Clip:            e.Method.Clip,
		Sigma:           e.Method.Sigma,
		AccountantSigma: e.Method.AccountantSigma,
		Delta:           e.Method.Delta,
		DecayFrom:       e.Method.DecayFrom,
		DecayTo:         e.Method.DecayTo,
		ShareFraction:   e.Method.ShareFraction,
		CompressRatio:   e.Method.Compress,
		Seed:            e.Seed,
		ValExamples:     e.Training.ValExamples,
		EvalEvery:       e.Training.EvalEvery,
		Parallelism:     e.Training.Parallelism,
		Codec:           e.Codec.Wire,
		DropoutRate:     e.Runtime.Dropout,
		RoundDeadline:   e.Runtime.Deadline,
		MinQuorum:       e.Runtime.Quorum,
		Scenario:        e.scenario(),
		Aggregation:     e.Aggregation.Rule,
		Shards:          e.Aggregation.Shards,
		Sampler:         e.Aggregation.Sampler,
		MuxWorkers:      e.Aggregation.MuxWorkers,
		Faults:          e.Faults.Plan,
		Population:      e.Faults.Population,
		ConfigDigest:    e.Digest(),
	}
}

// DialIn resolves the experiment for the TCP deployment — cmd/fedserve and
// the cmd/fedclient processes that dial it — and is the one place that
// deployment refuses, by key, what it cannot honor rather than ignore it:
// its clients are real processes on real links with their own fates, so no
// plan can be replayed on them (a planned restart would even answer parked
// clients "no further rounds", which they take as a clean finish), and its
// round server folds what arrives.
func (e *Experiment) DialIn() (*core.Resolved, error) {
	const onFabric = "is realized on the simnet fabric (fedtrain -set runtime.simnet=true); fedserve and fedclient are real processes on real links, which fail on their own and replay no plan"
	if err := core.ServerSanitizeRefusal(e.Method.Name, "fedserve's"); err != nil {
		return nil, fmt.Errorf("config: method.name: %w", err)
	}
	switch {
	case e.Faults.Plan != "":
		return nil, fmt.Errorf("config: faults.plan %q %s — clear it with -set faults.plan=", e.Faults.Plan, onFabric)
	case e.Faults.Population != "":
		return nil, fmt.Errorf("config: faults.population %q %s — clear it with -set faults.population=", e.Faults.Population, onFabric)
	case e.Runtime.Simnet:
		return nil, fmt.Errorf("config: runtime.simnet deploys the whole federation in one process over the in-memory fabric, which is fedtrain's to run (fedtrain -set runtime.simnet=true); fedserve and fedclient speak TCP")
	}
	return e.CoreConfig().Resolve()
}

// Expand resolves the sweep block into the list of single runs it
// describes: one experiment per sweep seed, each with the sweep cleared
// and its own digest. A config without a sweep expands to itself.
func (e *Experiment) Expand() []*Experiment {
	if len(e.Sweep.Seeds) == 0 {
		return []*Experiment{e}
	}
	out := make([]*Experiment, len(e.Sweep.Seeds))
	for i, s := range e.Sweep.Seeds {
		c := *e
		c.Seed = s
		c.Sweep = SweepBlock{}
		out[i] = &c
	}
	return out
}

// RunSweep executes run(i, exps[i]) for every expanded experiment, at most
// workers at a time (0 = GOMAXPROCS). Runs are independent seeded
// experiments, so parallel execution cannot change any result — it only
// changes wall-clock. All errors are collected and joined.
func RunSweep(exps []*Experiment, workers int, run func(i int, e *Experiment) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = run(i, e)
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err != nil {
			if first == nil {
				first = err
			} else {
				first = fmt.Errorf("%w; %w", first, err)
			}
		}
	}
	return first
}
