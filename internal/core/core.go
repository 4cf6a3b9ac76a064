package core

import (
	"fmt"
	"io"
	"time"

	"fedcdp/internal/accountant"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Config is the high-level experiment configuration. Zero fields inherit the
// benchmark's Table I defaults; the privacy defaults are the paper's
// (C = 4, σ = 6, δ = 1e-5, decay 6→2).
type Config struct {
	Dataset string // benchmark name (Table I)
	Method  string

	K      int // total clients (default 100)
	Kt     int // clients per round (default 10% of K)
	Rounds int // default: benchmark Rounds
	// PlannedRounds declares the full horizon when this run is a prefix
	// that will be checkpointed and resumed (anchors decay schedules).
	// Zero means Rounds is the whole plan.
	PlannedRounds int

	BatchSize  int     // default: benchmark B
	LocalIters int     // default: benchmark L
	LR         float64 // default: benchmark LR

	Clip  float64 // C (default 4)
	Sigma float64 // noise scale (default 6)
	// AccountantSigma, when set, is the noise scale used for privacy
	// accounting instead of Sigma. Scaled-down simulations use a reduced
	// training σ to compensate for their smaller averaging budget (see
	// DESIGN.md); setting AccountantSigma to the paper-scale σ reports the
	// guarantee of the full-scale deployment the run simulates. When unset,
	// accounting honestly uses the σ that actually ran.
	AccountantSigma float64
	Delta           float64 // default 1e-5
	DecayFrom       float64 // decay schedule start (default 6)
	DecayTo         float64 // decay schedule end (default 2)

	ShareFraction float64 // DSSGD share fraction (default 0.1)
	CompressRatio float64 // prune ratio for communication-efficient FL (0 = off)

	Seed        int64
	ValExamples int
	EvalEvery   int
	Parallelism int

	// Codec is the wire encoding every end of a deployment speaks:
	// fl.CodecGob (the default, and the parity oracle) or fl.CodecBinary,
	// the framed binary codec. RunSimnet and Serve deploy it on every
	// transport session; Run has no wire (see DESIGN.md, "Wire codec").
	Codec string

	// DropoutRate is the per-round probability that a selected client
	// fails to report (device churn); see fl.Config.DropoutRate. The round
	// engine flips the coin, so Run and RunSimnet thin cohorts identically.
	DropoutRate float64

	// RoundDeadline is the per-round straggler cutoff; zero waits for the
	// full cohort. RunSimnet refuses it: the fabric clock is virtual.
	RoundDeadline time.Duration

	// MinQuorum is the minimum folded updates required to commit a round;
	// a round below quorum leaves the global model unchanged.
	MinQuorum int

	// Scenario selects the data-heterogeneity scenario: how the benchmark
	// is partitioned across the client population (see dataset.Scenario).
	// The zero value is the iid/Table-I partition, which reproduces every
	// pre-scenario-engine run bit-for-bit.
	Scenario dataset.Scenario

	// Aggregation selects the server rule: "" / fl.AggFedSGD (default),
	// fl.AggFedAvg, or fl.AggWeighted — example-count-weighted FedAvg, the
	// rule that corrects for quantity-skewed partitions.
	Aggregation string

	// Shards selects the aggregation fold. 0 (the default) keeps the
	// legacy float aggregators — every pre-hierarchy run reproduces
	// bit-for-bit. 1 or more switches to the exact-arithmetic fold; in
	// process (Run, Serve) that is all it does. On the simnet fabric
	// (RunSimnet), 2 or more also builds the edge tier: each edge folds its
	// range of the client population and forwards one weight-carrying
	// partial, and the root composes partials exactly — bit-identical to
	// the flat exact fold at ANY shard count (see DESIGN.md, "Hierarchical
	// aggregation").
	Shards int

	// TreeFanout shaped the in-process aggregation tree, which is gone;
	// resolve refuses a non-zero value by name. It stays while
	// benchmark/probes.go binds it (ROADMAP 2(a)).
	TreeFanout int

	// Sampler selects cohort sampling: "" / fl.SamplerLegacy (the default
	// O(K) Fisher–Yates prefix, the golden-pinned oracle) or
	// fl.SamplerFloyd, Floyd's O(Kt) distinct-sample algorithm for
	// populations where allocating K slots per round dominates.
	Sampler string

	// MuxWorkers bounds concurrent multiplexed client sessions in RunSimnet,
	// flat or tree (0 = GOMAXPROCS). Population size is unconstrained by
	// it: K=100,000 virtual clients run over this many goroutines and
	// worker models.
	MuxWorkers int

	// Faults is a deterministic fault-injection plan in the simnet grammar
	// — e.g. "drop=0.2,crash=2,restart=1" (see simnet.ParsePlan). The plan
	// is bound to (Seed, Rounds, K), so the same configuration always
	// fails the same way; the empty string runs fault-free. Run injects
	// the plan in-process; RunSimnet additionally realizes it at the
	// transport level over the in-memory fabric.
	Faults string

	// Population is a deterministic open-world population plan in the same
	// simnet grammar — join=n@r, leave=n@r, churn=rate clauses (see
	// simnet.ParsePlan). It is concatenated with Faults and bound to
	// (Seed, Rounds, K), so which clients exist in which rounds is a pure
	// function of the configuration: cohorts are sampled only from each
	// round's active set, and privacy is accounted per user (see
	// Result.Ledger). The empty string is the closed world every
	// pre-population run assumed.
	Population string

	// ConfigDigest is the canonical digest of the declarative experiment
	// config this run was derived from (see internal/config). It is pure
	// metadata — it never influences training — but it is stamped into the
	// wire RoundConfig and rides in checkpoints so resumed and remote runs
	// can verify they are executing the same experiment. Empty for runs
	// assembled directly from struct literals.
	ConfigDigest string
}

// withDefaults resolves zero fields against the benchmark spec — the one
// meaning of an unset value, read from outside as Resolved.Cfg.
func (c Config) withDefaults(spec dataset.Spec) Config {
	if c.K == 0 {
		c.K = 100
	}
	if c.Kt == 0 {
		c.Kt = c.K / 10
		if c.Kt == 0 {
			c.Kt = 1
		}
	}
	if c.Rounds == 0 {
		c.Rounds = spec.Rounds
	}
	if c.BatchSize == 0 {
		c.BatchSize = spec.BatchSize
	}
	if c.LocalIters == 0 {
		c.LocalIters = spec.LocalIters
	}
	if c.LR == 0 {
		c.LR = spec.LR
	}
	if c.Clip == 0 {
		c.Clip = 4
	}
	if c.Sigma == 0 {
		c.Sigma = 6
	}
	if c.Delta == 0 {
		c.Delta = 1e-5
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

// Result is a run history annotated with privacy accounting.
type Result struct {
	*fl.History
	Spec dataset.Spec
	Cfg  Config
	// Ledger holds the per-user privacy accountants of an open-world run
	// (Config.Population set and dynamic); History's per-round ε is then
	// the max over the ledgers. Nil on closed-world runs, where every user
	// spends identically and the single global accountant is exact.
	Ledger *accountant.Ledger
}

// Print writes the run's report, the one fedtrain and fedserve share: shape,
// realized partition, per-round table, closing accuracy / ε / ledger lines.
func (r *Result) Print(w io.Writer) {
	cfg := r.Cfg
	fmt.Fprintf(w, "dataset=%s method=%s K=%d Kt=%d T=%d L=%d\n",
		cfg.Dataset, r.Strategy, cfg.K, cfg.Kt, cfg.Rounds, cfg.LocalIters)
	if cfg.Scenario.Name != "" {
		fmt.Fprintf(w, "scenario=%s %s\n", cfg.Scenario, r.Config.Data.Stats(cfg.K))
	}
	fmt.Fprintln(w, "round  accuracy  grad-norm  ms/iter  epsilon")
	for _, rs := range r.Rounds {
		acc := "      -"
		if rs.Evaluated {
			acc = fmt.Sprintf("%7.4f", rs.Accuracy)
		}
		fmt.Fprintf(w, "%5d  %s  %9.4f  %7.2f  %7.4f\n", rs.Round, acc, rs.MeanGradNorm, rs.MsPerIter, rs.Epsilon)
	}
	finalAcc, _ := r.FinalAccuracy()
	bestAcc, _ := r.BestAccuracy()
	meanMs, _ := r.MeanMsPerIter()
	fmt.Fprintf(w, "final: accuracy=%.4f best=%.4f epsilon=%.4f mean-ms/iter=%.2f\n",
		finalAcc, bestAcc, r.FinalEpsilon(), meanMs)
	if r.Ledger != nil {
		maxEps, _, worst := r.Ledger.MaxEpsilon()
		minEps, least := r.Ledger.MinEpsilon()
		fmt.Fprintf(w, "ledger: users=%d eps-max=%.4f (user %d) eps-min=%.4f (user %d)\n",
			len(r.Ledger.Users()), maxEps, worst, minEps, least)
	}
}

// Run executes the configured experiment: it resolves the benchmark,
// constructs the strategy, runs the federated simulation, and fills in the
// per-round privacy spending via the moments accountant.
func Run(cfg Config) (*Result, error) {
	r, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	hist, err := fl.Run(r.FL)
	if err != nil {
		return nil, err
	}
	return r.result(hist), nil
}

// Resolved is a Config bound to its benchmark: defaults applied, the plan
// bound over the horizon, and the fl.Config every runtime hands the round
// engine — also what a binary reads (Resolve) for a piece of the experiment
// outside a run: fedclient's shard, fedattack's victim.
type Resolved struct {
	Cfg  Config // with defaults applied
	Spec dataset.Spec
	Plan *simnet.Plan // the bound fault + population plan; clause-free on a clean run
	FL   fl.Config    // Data partitioned by Cfg.Scenario, Strategy, Model, …
}

// Resolve binds the Config as Run does.
func (c Config) Resolve() (*Resolved, error) { return c.resolve(0, c.PlannedRounds, nil) }

// resolve is the one Config → fl.Config mapping, shared by Run, Resume,
// RunSimnet and Serve. start and params continue a checkpointed run (0, nil
// starts fresh) for c.Rounds rounds; planned is the declared full horizon
// when it is longer than that.
func (c Config) resolve(start, planned int, params []*tensor.Tensor) (*Resolved, error) {
	spec, err := dataset.Get(c.Dataset)
	if err != nil {
		return nil, err
	}
	c = c.withDefaults(spec)
	if c.TreeFanout != 0 {
		return nil, fmt.Errorf("core: TreeFanout %d shapes nothing: the only aggregation tree is the simnet fabric's edge tier, which Shards sizes; leave TreeFanout 0", c.TreeFanout)
	}
	if !fl.ValidCodec(c.Codec) {
		return nil, fmt.Errorf("core: unknown wire codec %q", c.Codec)
	}
	strat, err := c.Strategy()
	if err != nil {
		return nil, err
	}
	part, err := c.Scenario.Partitioner()
	if err != nil {
		return nil, err
	}
	// The plan and the decay schedules span the whole planned horizon, so a
	// checkpointed prefix and its resumed remainder meet exactly the
	// failures, and the clipping bounds, of the uninterrupted run.
	horizon := max(start+c.Rounds, planned)
	clauses := c.planSpec()
	plan, err := simnet.ParsePlan(clauses)
	if err != nil {
		return nil, err
	}
	if plan, err = plan.Bind(c.Seed, horizon, c.K); err != nil {
		return nil, err
	}
	r := &Resolved{Cfg: c, Spec: spec, Plan: plan, FL: fl.Config{
		Data:  dataset.NewPartitioned(spec, c.Seed, part),
		Model: spec.ModelSpec(),
		K:     c.K, Kt: c.Kt, Rounds: c.Rounds,
		Round: fl.RoundConfig{
			BatchSize:    c.BatchSize,
			LocalIters:   c.LocalIters,
			LR:           c.LR,
			Scenario:     c.Scenario,
			ConfigDigest: c.ConfigDigest,
		},
		Strategy:        strat,
		Aggregation:     c.Aggregation,
		Shards:          c.Shards,
		Sampler:         c.Sampler,
		Seed:            c.Seed,
		ValExamples:     c.ValExamples,
		EvalEvery:       c.EvalEvery,
		Parallelism:     c.Parallelism,
		InitialParams:   params,
		StartRound:      start,
		ScheduleHorizon: horizon,
		DropoutRate:     c.DropoutRate,
		RoundDeadline:   c.RoundDeadline,
		MinQuorum:       c.MinQuorum,
	}}
	if clauses != "" {
		// A clean run carries no plan at all: the in-process hot path skips
		// every per-client plan query.
		r.FL.Plan = plan
	}
	return r, nil
}

// *simnet.Plan is the fl.Plan every runtime reads: a method whose signature
// drifts from the interface fails here, not as clauses that never fire.
var _ fl.Plan = (*simnet.Plan)(nil)

// planSpec joins the fault and population clauses into the single simnet
// plan the run binds — they share the grammar and the (Seed, Rounds, K)
// binding, so "drop=0.2" and "churn=0.1" compose exactly like two clauses
// of one plan string.
func (c Config) planSpec() string {
	switch {
	case c.Faults == "":
		return c.Population
	case c.Population == "":
		return c.Faults
	}
	return c.Faults + "," + c.Population
}

// result annotates a finished history with its privacy spending.
func (r *Resolved) result(hist *fl.History) *Result {
	ledger := annotateEpsilon(r.Cfg, r.Spec, hist, fl.PopulationOf(r.Cfg.K, r.Plan))
	return &Result{History: hist, Spec: r.Spec, Cfg: r.Cfg, Ledger: ledger}
}

// annotateEpsilon fills RoundStats.Epsilon with cumulative privacy spending
// as the method row's accounting charges it; under no guarantee ε stays 0,
// i.e. "unbounded" (see History documentation).
//
// Only committed rounds are charged: a round below quorum leaves the global
// model unchanged and publishes nothing, so composing its mechanism would
// overstate the spend. (Before this rule, a drop-faulted run reported the
// ε of the clean run it never performed.)
//
// On a closed world (static pop) every user is in every committed round's
// sampling pool, so one global accountant is exact and cheap at any K. On an
// open world the spend is per user: every client active in a committed
// round's pool is charged at that round's rate, and the published ε is the
// worst user's. Those are the ids the round loop drew the cohort from
// (RoundStats.ActiveIDs); only a round it did not record is walked again.
// The returned ledger is nil on the closed-world path.
func annotateEpsilon(cfg Config, spec dataset.Spec, hist *fl.History, pop fl.Population) *accountant.Ledger {
	m, err := lookupMethod(cfg.Method)
	if err != nil || m.acct == noGuarantee {
		return nil
	}
	sigma := cfg.Sigma
	if cfg.AccountantSigma > 0 {
		sigma = cfg.AccountantSigma
	}
	if !pop.Dynamic() {
		q, steps := m.acct.charge(cfg, spec, cfg.K)
		acc := accountant.New(cfg.Delta)
		for i := range hist.Rounds {
			if hist.Rounds[i].Committed {
				acc.Accumulate(q, sigma, steps)
			}
			eps, _ := acc.Epsilon()
			hist.Rounds[i].Epsilon = eps
		}
		return nil
	}
	led := accountant.NewLedger(cfg.Delta)
	for i := range hist.Rounds {
		round := hist.Rounds[i].Round
		if hist.Rounds[i].Committed {
			active := hist.Rounds[i].ActiveIDs
			if active == nil { // e.g. a checkpointed prefix
				active = pop.ActiveSet(round)
			}
			q, steps := m.acct.charge(cfg, spec, len(active))
			for _, id := range active {
				led.Participate(id, q, sigma, steps)
			}
		}
		eps, _, _ := led.MaxEpsilon()
		hist.Rounds[i].Epsilon = eps
	}
	return led
}
