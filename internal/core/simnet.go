package core

import (
	"fmt"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// simnetServerAddr is the server's address on the fabric; clients are
// hosts "c<id>", the names the plan's partition clauses target.
const simnetServerAddr = "server"

func simnetClientHost(id int) string { return fmt.Sprintf("c%d", id) }

// simnetCohort picks a round's participating clients honoring the
// configured sampler and the open-world population — the same draw fl.Run
// would make (fl.ActiveCohort's static branch is the pre-population draw
// verbatim) — and reports the size of the active set it drew from.
func simnetCohort(cfg Config, pop fl.Population, round int) (cohort []int, active int) {
	return fl.ActiveCohortCount(cfg.Seed, round, pop, cfg.Kt, cfg.Sampler, false)
}

// clientOutcome is one simnet client goroutine's terminal state. planned
// marks clients the fault plan destroyed on purpose — their session errors
// are the injected fault, not a harness bug.
type clientOutcome struct {
	id      int
	planned bool
	err     error
}

// RunSimnet executes the configured experiment as a full deployment over
// the in-memory simnet fabric: a RoundServer on a fabric listener, every
// cohort member a real RPC client goroutine dialing through the fault
// plan, and the plan realized at the transport level — crashed and
// drop-fated clients abandon their session mid-protocol (the server
// observes a failed session, exactly as over TCP), partitioned clients
// cannot dial at all, restarts tear the server down and rebind the
// address, and link latency/jitter/duplication run on virtual time.
//
// The fold is arrival-order (the wire has no reorder buffer), so final
// parameters are subject to float summation order across runs; the folded
// SET, per-round counts, commits and ε are deterministic per seed. For
// bit-exact faulted runs use Run with Config.Faults (in-process
// injection), which folds in cohort order.
func RunSimnet(cfg Config) (*Result, error) {
	spec, err := dataset.Get(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(spec)
	strat, err := cfg.Strategy()
	if err != nil {
		return nil, err
	}
	part, err := cfg.Scenario.Partitioner()
	if err != nil {
		return nil, err
	}
	ds := dataset.NewPartitioned(spec, cfg.Seed, part)
	plan, err := simnet.ParsePlan(cfg.planSpec())
	if err != nil {
		return nil, err
	}
	plan, err = plan.Bind(cfg.Seed, cfg.Rounds, cfg.K)
	if err != nil {
		return nil, err
	}
	pop := fl.PopulationOf(cfg.K, plan)
	if cfg.MinQuorum < 0 || cfg.MinQuorum > cfg.Kt {
		return nil, fmt.Errorf("core: quorum %d outside [0, Kt=%d]", cfg.MinQuorum, cfg.Kt)
	}
	if !fl.ValidCodec(cfg.Codec) {
		return nil, fmt.Errorf("core: unknown wire codec %q", cfg.Codec)
	}
	if cfg.Quant != 0 {
		return nil, fmt.Errorf("core: update quantization (quant=%d) is not plumbed into the simnet clients, which would send dense updates; use quant=0", cfg.Quant)
	}
	if cfg.Method == MethodFedSDPSrv {
		return nil, fmt.Errorf("core: method %s sanitizes at the server, which the simnet round servers do not do (updates would fold without clip or noise while ε is still charged); use %s, the client-side placement with the same accounting", MethodFedSDPSrv, MethodFedSDP)
	}
	if !fl.ValidAggregation(cfg.Aggregation) {
		return nil, fmt.Errorf("core: unknown aggregation %q", cfg.Aggregation)
	}
	if cfg.Shards > 0 && fl.RobustAggregation(cfg.Aggregation) {
		// Robust folds are order statistics over raw updates — they are not
		// grouping-invariant, so a sharded edge tree would commit silently
		// wrong parameters. Refuse up front.
		return nil, fmt.Errorf("core: robust aggregation %q cannot run on the sharded tree topology (shards=%d); use shards=0", cfg.Aggregation, cfg.Shards)
	}
	switch cfg.Sampler {
	case "", fl.SamplerLegacy, fl.SamplerFloyd:
	default:
		return nil, fmt.Errorf("core: unknown sampler %q", cfg.Sampler)
	}
	if cfg.Shards < 0 || cfg.Shards > cfg.K {
		return nil, fmt.Errorf("core: shards %d outside [0, K=%d]", cfg.Shards, cfg.K)
	}
	if cfg.Shards > 0 {
		return runSimnetTree(cfg, spec, strat, ds, plan)
	}

	n := simnet.New(cfg.Seed, plan)
	global := nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	valX, valY := ds.Validation(valN)

	newServer := func() (*fl.RoundServer, error) {
		ln, lerr := n.Listen(simnetServerAddr)
		if lerr != nil {
			return nil, lerr
		}
		srv := fl.NewRoundServerOn(ln)
		srv.Clock = n.Clock()
		srv.Codec = cfg.Codec
		return srv, nil
	}
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	defer func() { srv.Close() }()
	agg, err := fl.NewAggregator(cfg.Aggregation)
	if err != nil {
		return nil, err
	}

	rcfg := fl.RoundConfig{
		BatchSize:    cfg.BatchSize,
		LocalIters:   cfg.LocalIters,
		LR:           cfg.LR,
		TotalRounds:  cfg.Rounds,
		Scenario:     cfg.Scenario,
		Precision:    cfg.Precision,
		ConfigDigest: cfg.ConfigDigest,
	}
	// Under link-level chaos (message cuts, duplicate delivery) ANY
	// session may legitimately die mid-protocol — those deaths are the
	// injected fault, not a harness bug, so client errors are tolerated
	// and show up in the round accounting as failed sessions instead.
	linkChaos := plan.MsgDropRate > 0 || plan.DupRate > 0

	hist := &fl.History{Strategy: strat.Name()}
	for round := 0; round < cfg.Rounds; round++ {
		n.SetRound(round)
		if plan.RestartServer(round) {
			// Between-round restart, for real: the listener closes, every
			// parked session is refused, and a fresh server rebinds the
			// address — the surface cmd/fedclient's reconnect loop rides.
			srv.Close()
			if srv, err = newServer(); err != nil {
				return nil, fmt.Errorf("core: simnet restart before round %d: %w", round, err)
			}
			if agg, err = fl.NewAggregator(cfg.Aggregation); err != nil {
				return nil, err
			}
		}

		cohort, activeN := simnetCohort(cfg, pop, round)
		// Partitioned members cannot even open a session; they are excluded
		// from the round's admission quota (the harness, unlike the server,
		// is allowed to know who is unreachable).
		reachable := make([]int, 0, len(cohort))
		for _, id := range cohort {
			if !plan.Partitioned(round, simnetClientHost(id), simnetServerAddr) {
				reachable = append(reachable, id)
			}
		}

		rs := fl.RoundStats{Round: round, Active: activeN, Committed: 0 >= cfg.MinQuorum, Dropped: len(cohort)}
		wireBefore := n.BytesWritten()
		if len(reachable) > 0 {
			outcomes := make(chan clientOutcome, len(reachable))
			for _, id := range reachable {
				go func(id int) {
					dial := n.Dialer(simnetClientHost(id))
					if plan.CrashClient(round, id) || plan.DropUpdate(round, id) {
						// The fault plan destroys this contribution: the
						// client opens its session, receives the round, and
						// vanishes — the server counts a failed session.
						_, aerr := fl.AbandonSession(simnetServerAddr, fl.ClientOptions{Dial: dial, Codec: cfg.Codec})
						outcomes <- clientOutcome{id: id, planned: true, err: aerr}
						return
					}
					// Adversarial realization: a poisoned client trains on its
					// flipped-label shard view, a Byzantine one corrupts its
					// update before submission — both pure functions of the
					// plan seed, so the deployment attacks exactly as the
					// in-process runtimes do.
					data := fl.AdversaryShard(plan, id, ds.Client(id))
					cerr := fl.RunRemoteClientOpts(simnetServerAddr, id, strat, data, spec.ModelSpec(), cfg.Seed,
						fl.ClientOptions{Dial: dial, Codec: cfg.Codec, Adversary: plan})
					outcomes <- clientOutcome{id: id, err: cerr}
				}(id)
			}
			// The deadline is virtual and unreachable (every session
			// resolves, nothing advances the clock an hour): it exists so
			// session failures are counted instead of aborting the round —
			// the deployment contract.
			res, rerr := srv.StreamRound(round, global.Params(), rcfg, agg, fl.RoundOptions{
				Clients:   len(reachable),
				Deadline:  time.Hour,
				MinQuorum: cfg.MinQuorum,
			})
			if rerr != nil {
				return nil, fmt.Errorf("core: simnet round %d: %w", round, rerr)
			}
			for range reachable {
				o := <-outcomes
				if o.err != nil && !o.planned && !linkChaos {
					return nil, fmt.Errorf("core: simnet round %d client %d: %w", round, o.id, o.err)
				}
			}
			rs.Clients = res.Folded
			rs.Dropped = len(cohort) - res.Folded
			rs.Committed = res.Committed
		}
		rs.WireBytes = n.BytesWritten() - wireBefore
		if round%evalEvery == 0 || round == cfg.Rounds-1 {
			rs.Accuracy = fl.Evaluate(global, valX, valY)
			rs.Evaluated = true
		}
		hist.Rounds = append(hist.Rounds, rs)
	}
	hist.Final = global
	ledger := annotateEpsilon(cfg, spec, hist, pop)
	return &Result{History: hist, Spec: spec, Cfg: cfg, Ledger: ledger}, nil
}
