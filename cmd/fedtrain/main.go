// Command fedtrain runs one federated-learning experiment with full control
// over the method, benchmark and privacy parameters, printing per-round
// accuracy and privacy spending.
//
// Examples:
//
//	fedtrain -dataset mnist -method fedcdp -rounds 20 -iters 20
//	fedtrain -dataset cancer -method fedsdp -k 100 -kt 10 -sigma 1
//	fedtrain -dataset mnist -method fedcdp-decay -compress 0.3
//	fedtrain -dataset mnist -method fedcdp -scenario dirichlet -alpha 0.1
//	fedtrain -dataset mnist -scenario quantity -agg weighted
//	fedtrain -dataset cancer -faults 'drop=0.2,crash=2,restart=1'
//	fedtrain -dataset cancer -simnet -faults 'latency=20ms,crash=2,partition=c0>server@1-2'
//	fedtrain -dataset cancer -simnet -k 100000 -kt 1000 -agg-shards 32 -sampler floyd -codec binary -iters 1
//	fedtrain -config configs/fault-acceptance.yaml
//	fedtrain -config configs/fault-acceptance.yaml -sigma 0.1   # flag overrides file
//
// -faults injects a deterministic fault plan (see DESIGN.md, "Simnet") into
// the in-process runtime; -simnet additionally runs the whole federation —
// server, per-client RPC sessions, restarts — over the in-memory simnet
// fabric on virtual time. -agg-shards switches aggregation to the exact
// hierarchical topology (under -simnet, real edge-aggregator hosts), which
// with -sampler floyd and the multiplexed client scheduler scales seeded
// deployments to K=100,000 (see DESIGN.md, "Hierarchical aggregation").
//
// -config loads a declarative experiment file (see internal/config and
// DESIGN.md, "Experiment configs"): the file fully determines the run, any
// flag passed alongside overrides it and is re-stamped into the effective
// config, and the run is tagged with the config's canonical digest. A
// sweep block in the file fans the run out over multiple seeds in parallel
// across cores.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
)

func main() {
	var cfg core.Config
	flag.StringVar(&cfg.Dataset, "dataset", "mnist", "benchmark: "+strings.Join(dataset.Names(), ", "))
	flag.StringVar(&cfg.Method, "method", core.MethodFedCDP, "method: "+strings.Join(core.Methods(), ", "))
	flag.IntVar(&cfg.K, "k", 16, "total client population")
	flag.IntVar(&cfg.Kt, "kt", 8, "participating clients per round")
	flag.IntVar(&cfg.Rounds, "rounds", 20, "federated rounds T")
	flag.IntVar(&cfg.BatchSize, "batch", 0, "local batch size B (0 = benchmark default)")
	flag.IntVar(&cfg.LocalIters, "iters", 20, "local iterations L")
	flag.Float64Var(&cfg.LR, "lr", 0, "learning rate (0 = benchmark default)")
	flag.Float64Var(&cfg.Clip, "clip", 4, "clipping bound C")
	flag.Float64Var(&cfg.Sigma, "sigma", 0.06, "noise scale (paper σ=6; see DESIGN.md on scaling)")
	flag.Float64Var(&cfg.DecayFrom, "decay-from", 6, "decay schedule initial bound")
	flag.Float64Var(&cfg.DecayTo, "decay-to", 2, "decay schedule final bound")
	flag.Float64Var(&cfg.CompressRatio, "compress", 0, "gradient prune ratio (communication-efficient FL)")
	flag.Float64Var(&cfg.ShareFraction, "share", 0.1, "DSSGD share fraction")
	flag.StringVar(&cfg.Codec, "codec", "", "wire codec: gob (default, parity oracle) or binary (see DESIGN.md)")
	flag.StringVar(&cfg.Precision, "precision", "", "client GEMM precision: fp64 (default, parity oracle) or fp32 (see DESIGN.md)")
	flag.StringVar(&cfg.Scenario.Name, "scenario", "", "data-heterogeneity scenario: "+strings.Join(dataset.ScenarioNames(), ", ")+" (default iid)")
	flag.Float64Var(&cfg.Scenario.Alpha, "alpha", 0, "dirichlet concentration (0 = default 0.5)")
	flag.IntVar(&cfg.Scenario.Shards, "shards", 0, "pathological label shards per client (0 = default 2)")
	flag.IntVar(&cfg.Scenario.Period, "period", 0, "rounds per stage for time-varying scenarios (incremental, decaynoise; 0 = default 5)")
	flag.StringVar(&cfg.Aggregation, "agg", "", "aggregation rule: fedsgd (default), fedavg, weighted, or robust — median, trimmed[:beta], krum[:f] (robust rules require -agg-shards 0; see DESIGN.md)")
	flag.IntVar(&cfg.Shards, "agg-shards", 0, "aggregation topology: 0 = legacy flat float fold, 1 = flat exact fold, >=2 = edge-aggregator tree (bit-identical to 1 at any count; see DESIGN.md)")
	flag.IntVar(&cfg.TreeFanout, "tree", 0, "aggregation-tree partial compose fan-in (0 = all at once)")
	flag.StringVar(&cfg.Sampler, "sampler", "", "cohort sampler: legacy (default, O(K) per round) or floyd (O(Kt), for large populations)")
	flag.IntVar(&cfg.MuxWorkers, "mux-workers", 0, "simnet virtual-client worker pool size (0 = GOMAXPROCS; population size is unconstrained)")
	flag.Float64Var(&cfg.DropoutRate, "dropout", 0, "per-round client dropout probability")
	flag.StringVar(&cfg.Faults, "faults", "", "deterministic fault/adversary plan, e.g. 'drop=0.2,crash=2' or 'byzantine=2:signflip,poison=1:0.8' (see DESIGN.md)")
	flag.StringVar(&cfg.Population, "population", "", "open-world population plan, e.g. 'join=4@3,leave=2@6,churn=0.1' (see DESIGN.md)")
	useSimnet := flag.Bool("simnet", false, "run the federation over the in-memory simnet fabric (RPC path, virtual time)")
	flag.DurationVar(&cfg.RoundDeadline, "deadline", 0, "per-round straggler cutoff (0 = wait for full cohort)")
	flag.IntVar(&cfg.MinQuorum, "quorum", 0, "minimum updates required to commit a round")
	flag.Int64Var(&cfg.Seed, "seed", 42, "root seed")
	flag.IntVar(&cfg.ValExamples, "val", 300, "validation examples")
	evalEvery := flag.Int("eval-every", 1, "evaluate every n rounds")
	ckptOut := flag.String("checkpoint-out", "", "write a resumable checkpoint here after the run")
	ckptIn := flag.String("checkpoint-in", "", "resume from this checkpoint instead of starting fresh")
	cfgPath := flag.String("config", "", "declarative experiment config file; flags given alongside override it (see DESIGN.md, \"Experiment configs\")")
	sweepWorkers := flag.Int("sweep-workers", 0, "parallel runs for a config sweep block (0 = GOMAXPROCS)")
	flag.Parse()
	cfg.EvalEvery = *evalEvery

	if *cfgPath != "" {
		if *ckptIn != "" {
			fmt.Fprintln(os.Stderr, "fedtrain: -config cannot be combined with -checkpoint-in (the checkpoint carries its own config)")
			os.Exit(1)
		}
		exp, err := config.Load(*cfgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedtrain:", err)
			os.Exit(1)
		}
		// Flags the user actually passed win over the file and are
		// re-stamped into the effective config before it is digested.
		config.ApplyFlagOverrides(flag.CommandLine, exp, config.FromCore(cfg, *useSimnet))
		if err := exp.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "fedtrain:", err)
			os.Exit(1)
		}
		if runs := exp.Expand(); len(runs) > 1 {
			runSweep(runs, *sweepWorkers, *ckptOut)
			return
		}
		cfg = exp.CoreConfig()
		*useSimnet = exp.Runtime.Simnet
		fmt.Printf("config=%s digest=%s\n", *cfgPath, cfg.ConfigDigest)
	}

	var res *core.Result
	var err error
	switch {
	case *ckptIn != "":
		if *useSimnet {
			fmt.Fprintln(os.Stderr, "fedtrain: -simnet cannot resume a checkpoint")
			os.Exit(1)
		}
		ckpt, lerr := core.LoadCheckpointFile(*ckptIn)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "fedtrain:", lerr)
			os.Exit(1)
		}
		res, err = ckpt.Resume(cfg.Rounds)
	case *useSimnet:
		res, err = core.RunSimnet(cfg)
	default:
		res, err = core.Run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedtrain:", err)
		os.Exit(1)
	}
	if *ckptOut != "" {
		if cerr := core.CheckpointFrom(res).SaveFile(*ckptOut); cerr != nil {
			fmt.Fprintln(os.Stderr, "fedtrain:", cerr)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *ckptOut)
	}
	fmt.Printf("dataset=%s method=%s K=%d Kt=%d T=%d L=%d\n",
		cfg.Dataset, res.Strategy, res.Cfg.K, res.Cfg.Kt, res.Cfg.Rounds, res.Cfg.LocalIters)
	if cfg.Scenario.Name != "" {
		if p, perr := cfg.Scenario.Partitioner(); perr == nil {
			ds := dataset.NewPartitioned(res.Spec, res.Cfg.Seed, p)
			fmt.Printf("scenario=%s %s\n", cfg.Scenario, ds.Stats(res.Cfg.K))
		}
	}
	fmt.Println("round  accuracy  grad-norm  ms/iter  epsilon")
	for _, r := range res.Rounds {
		acc := "      -"
		if r.Evaluated {
			acc = fmt.Sprintf("%7.4f", r.Accuracy)
		}
		fmt.Printf("%5d  %s  %9.4f  %7.2f  %7.4f\n", r.Round, acc, r.MeanGradNorm, r.MsPerIter, r.Epsilon)
	}
	finalAcc, _ := res.FinalAccuracy()
	bestAcc, _ := res.BestAccuracy()
	meanMs, _ := res.MeanMsPerIter()
	fmt.Printf("final: accuracy=%.4f best=%.4f epsilon=%.4f mean-ms/iter=%.2f\n",
		finalAcc, bestAcc, res.FinalEpsilon(), meanMs)
	if res.Ledger != nil {
		maxEps, _, worst := res.Ledger.MaxEpsilon()
		minEps, least := res.Ledger.MinEpsilon()
		fmt.Printf("ledger: users=%d eps-max=%.4f (user %d) eps-min=%.4f (user %d)\n",
			len(res.Ledger.Users()), maxEps, worst, minEps, least)
	}
}

// runSweep executes a config's expanded multi-seed runs in parallel across
// cores. Each run is an independent seeded experiment (parallelism cannot
// change any result), so output is collected per run and printed in sweep
// order once everything finishes.
func runSweep(runs []*config.Experiment, workers int, ckptOut string) {
	if ckptOut != "" {
		fmt.Fprintln(os.Stderr, "fedtrain: -checkpoint-out is ambiguous over a sweep; checkpoint a single-seed config instead")
		os.Exit(1)
	}
	lines := make([]string, len(runs))
	var mu sync.Mutex
	err := config.RunSweep(runs, workers, func(i int, e *config.Experiment) error {
		res, rerr := runOne(e)
		if rerr != nil {
			return fmt.Errorf("seed %d: %w", e.Seed, rerr)
		}
		mu.Lock()
		acc, _ := res.FinalAccuracy()
		best, _ := res.BestAccuracy()
		lines[i] = fmt.Sprintf("seed=%-6d digest=%s accuracy=%.4f best=%.4f epsilon=%.4f",
			e.Seed, e.Digest(), acc, best, res.FinalEpsilon())
		mu.Unlock()
		return nil
	})
	fmt.Printf("sweep: %d seeds\n", len(runs))
	for _, l := range lines {
		if l != "" {
			fmt.Println(l)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedtrain:", err)
		os.Exit(1)
	}
}

func runOne(e *config.Experiment) (*core.Result, error) {
	cfg := e.CoreConfig()
	if e.Runtime.Simnet {
		return core.RunSimnet(cfg)
	}
	return core.Run(cfg)
}
