// Command fedserve runs a real federated-learning server over TCP: it
// publishes the global model to concurrently handled client sessions each
// round, folds their updates as they arrive (O(model) server memory
// regardless of cohort size), evaluates, and prints progress. Pair it with
// cmd/fedclient processes (optionally on other machines) given the same
// experiment.
//
//	fedserve -config configs/fault-acceptance.yaml -addr :7070
//	fedserve -config configs/fault-acceptance.yaml -set runtime.deadline=30s -set runtime.quorum=2 -secure
//
// The experiment (-config, -set; see internal/config) determines the task:
// dataset, cohort size training.kt, training.rounds, deadline and quorum,
// aggregation rule and topology, codec, precision, scenario. Its canonical
// digest is published with every round announcement, and fedclient refuses
// a server whose digest is not its own. Only -addr and -secure are not
// part of that identity.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf config.Flags
	cf.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	secure := fs.Bool("secure", false, "encrypt the channel (X25519 + AES-GCM)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp, err := cf.Load()
	if err != nil {
		return err
	}
	if exp.Method.Name == core.MethodFedSDPSrv {
		return core.ServerSanitizeRefusal("fedserve's")
	}
	spec, err := dataset.Get(exp.Data.Dataset)
	if err != nil {
		return err
	}
	cfg := exp.CoreConfig().WithDefaults(spec)
	round := fl.RoundConfig{
		BatchSize: cfg.BatchSize, LocalIters: cfg.LocalIters, LR: cfg.LR,
		TotalRounds: cfg.Rounds, Scenario: cfg.Scenario, Precision: cfg.Precision, ConfigDigest: cfg.ConfigDigest,
	}
	ds := dataset.New(spec, cfg.Seed)
	model := nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
	valX, valY := ds.Validation(cfg.ValExamples)

	srv, err := fl.NewRoundServer(*addr)
	if err != nil {
		return err
	}
	srv.Secure = *secure
	srv.Codec = cfg.Codec
	defer srv.Close()
	fmt.Fprintf(stdout, "fedserve: experiment %s: %s on %s (secure=%v), %d rounds, %d clients/round, deadline=%v, quorum=%d, scenario=%s\n",
		cfg.ConfigDigest, cfg.Dataset, srv.Addr(), *secure, cfg.Rounds, cfg.Kt, cfg.RoundDeadline, cfg.MinQuorum, cfg.Scenario)

	agg, err := fl.NewAggregatorFor(cfg.Aggregation, cfg.Shards, cfg.TreeFanout, cfg.K)
	if err != nil {
		return err
	}
	for r := 0; r < cfg.Rounds; r++ {
		start := time.Now()
		res, err := srv.StreamRound(r, model.Params(), round, agg, fl.RoundOptions{
			Clients:   cfg.Kt,
			Deadline:  cfg.RoundDeadline,
			MinQuorum: cfg.MinQuorum,
		})
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
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
		fmt.Fprintf(stdout, "round %d: %d/%d updates folded (%d failed%s), %s, accuracy %.4f, %.1fs\n",
			r, res.Folded, cfg.Kt, res.Failed, dups, status, acc, time.Since(start).Seconds())
	}
	fmt.Fprintln(stdout, "fedserve: done")
	return nil
}
