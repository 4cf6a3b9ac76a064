// Command fedserve runs a real federated-learning server over TCP: it
// publishes the global model to concurrently handled client sessions each
// round, folds their updates into a FedSGD aggregator as they arrive
// (O(model) server memory regardless of cohort size), evaluates, and
// prints progress. Rounds can run against a straggler deadline and a
// minimum quorum. Pair it with cmd/fedclient processes (optionally on
// other machines).
//
//	fedserve -addr :7070 -dataset cancer -kt 3 -rounds 5 -deadline 30s -quorum 2 -secure
//	fedserve -config configs/fault-acceptance.yaml -addr :7070
//
// -config loads a declarative experiment file (see internal/config): the
// file determines the task, flags given alongside override it, and the
// config's canonical digest is published with every round announcement so
// config-driven clients can verify they joined the right experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dsName := flag.String("dataset", "cancer", "benchmark dataset")
	kt := flag.Int("kt", 2, "clients per round")
	rounds := flag.Int("rounds", 3, "federated rounds")
	batch := flag.Int("batch", 0, "local batch size (0 = benchmark default)")
	iters := flag.Int("iters", 10, "local iterations")
	lr := flag.Float64("lr", 0, "learning rate (0 = benchmark default)")
	deadline := flag.Duration("deadline", 0, "per-round straggler cutoff (0 = wait for all kt updates)")
	quorum := flag.Int("quorum", 0, "minimum updates required to commit a round")
	secure := flag.Bool("secure", false, "encrypt the channel (X25519 + AES-GCM)")
	codec := flag.String("codec", "", "wire codec offered to clients: gob (default) or binary (negotiated per session, see DESIGN.md)")
	precision := flag.String("precision", "", "client GEMM precision published with the round: fp64 (default) or fp32")
	scenario := flag.String("scenario", "", "data-heterogeneity scenario published to clients: "+strings.Join(dataset.ScenarioNames(), ", ")+" (default iid)")
	alpha := flag.Float64("alpha", 0, "dirichlet concentration (0 = default 0.5)")
	shards := flag.Int("shards", 0, "pathological label shards per client (0 = default 2)")
	aggRule := flag.String("agg", "", "aggregation rule: fedsgd (default), fedavg, weighted, or robust — median, trimmed[:beta], krum[:f] (robust rules require -agg-shards 0; see DESIGN.md)")
	aggShards := flag.Int("agg-shards", 0, "aggregation topology: 0 = legacy flat float fold, 1 = flat exact fold, >=2 = in-process aggregation tree (bit-identical to 1; see DESIGN.md)")
	treeFanout := flag.Int("tree", 0, "aggregation-tree partial compose fan-in (0 = all at once)")
	seed := flag.Int64("seed", 42, "root seed")
	cfgPath := flag.String("config", "", "declarative experiment config file; flags given alongside override it (see DESIGN.md, \"Experiment configs\")")
	flag.Parse()

	digest := ""
	if *cfgPath != "" {
		exp, err := config.Load(*cfgPath)
		if err != nil {
			fatal(err)
		}
		flagSrc := config.FromCore(core.Config{
			Dataset: *dsName, Kt: *kt, Rounds: *rounds, BatchSize: *batch,
			LocalIters: *iters, LR: *lr, RoundDeadline: *deadline, MinQuorum: *quorum,
			Codec: *codec, Precision: *precision,
			Scenario:    dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards},
			Aggregation: *aggRule, Shards: *aggShards, TreeFanout: *treeFanout, Seed: *seed,
		}, false)
		config.ApplyFlagOverrides(flag.CommandLine, exp, flagSrc)
		if err := exp.Validate(); err != nil {
			fatal(err)
		}
		*dsName, *kt, *rounds = exp.Data.Dataset, exp.Training.Kt, exp.Training.Rounds
		*batch, *iters, *lr = exp.Training.BatchSize, exp.Training.LocalIters, exp.Training.LR
		*deadline, *quorum = exp.Runtime.Deadline, exp.Runtime.Quorum
		*codec, *precision = exp.Codec.Wire, exp.Model.Precision
		*scenario, *alpha, *shards = exp.Data.Scenario, exp.Data.Alpha, exp.Data.Shards
		*aggRule, *aggShards, *treeFanout = exp.Aggregation.Rule, exp.Aggregation.Shards, exp.Aggregation.TreeFanout
		*seed = exp.Seed
		digest = exp.Digest()
	}

	spec, err := dataset.Get(*dsName)
	if err != nil {
		fatal(err)
	}
	if *batch == 0 {
		*batch = spec.BatchSize
	}
	if *lr == 0 {
		*lr = spec.LR
	}
	if *quorum < 0 || *quorum > *kt {
		fatal(fmt.Errorf("quorum %d outside [0, kt=%d]", *quorum, *kt))
	}
	sc := dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards}
	if _, err := sc.Partitioner(); err != nil {
		fatal(err)
	}
	if !fl.ValidCodec(*codec) {
		fatal(fmt.Errorf("unknown wire codec %q", *codec))
	}
	if *precision != "" && *precision != tensor.PrecisionFP64 && *precision != tensor.PrecisionFP32 {
		fatal(fmt.Errorf("unknown precision %q", *precision))
	}
	ds := dataset.New(spec, *seed)
	model := nn.Build(spec.ModelSpec(), tensor.Split(*seed, 1))
	valX, valY := ds.Validation(200)

	srv, err := fl.NewRoundServer(*addr)
	if err != nil {
		fatal(err)
	}
	srv.Secure = *secure
	srv.Codec = *codec
	defer srv.Close()
	fmt.Printf("fedserve: %s on %s (secure=%v, codec=%s), %d rounds, %d clients/round, deadline=%v, quorum=%d, scenario=%s\n",
		*dsName, srv.Addr(), *secure, codecName(*codec), *rounds, *kt, *deadline, *quorum, sc)

	cfg := fl.RoundConfig{BatchSize: *batch, LocalIters: *iters, LR: *lr, TotalRounds: *rounds, Scenario: sc, Precision: *precision, ConfigDigest: digest}
	// K=0: a standalone server has no declared population, so tree shards
	// partition client ids by modulo instead of contiguous ranges.
	agg, err := fl.NewAggregatorFor(*aggRule, *aggShards, *treeFanout, 0)
	if err != nil {
		fatal(err)
	}
	for round := 0; round < *rounds; round++ {
		start := time.Now()
		res, err := srv.StreamRound(round, model.Params(), cfg, agg, fl.RoundOptions{
			Clients:   *kt,
			Deadline:  *deadline,
			MinQuorum: *quorum,
		})
		if err != nil {
			fatal(fmt.Errorf("round %d: %w", round, err))
		}
		acc := fl.Evaluate(model, valX, valY)
		status := "committed"
		if !res.Committed {
			status = "below quorum — model unchanged"
		}
		dups := ""
		if res.Duplicates > 0 {
			dups = fmt.Sprintf(", %d duplicate", res.Duplicates)
		}
		fmt.Printf("round %d: %d/%d updates folded (%d failed%s), %s, accuracy %.4f, %.1fs\n",
			round, res.Folded, *kt, res.Failed, dups, status, acc, time.Since(start).Seconds())
	}
	fmt.Println("fedserve: done")
}

func codecName(c string) string {
	if c == "" {
		return fl.CodecGob
	}
	return c
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedserve:", err)
	os.Exit(1)
}
