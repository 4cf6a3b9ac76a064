// Command fedserve runs a real federated-learning server over TCP: the round
// engine every runtime shares (core.Serve) publishes the global model to
// concurrently handled client sessions each round, folds their updates as
// they arrive (O(model) server memory regardless of cohort size), and ends
// with the report fedtrain prints — accuracy on the scheduled rounds and the
// ε of the rounds that committed. Pair it with cmd/fedclient processes
// (optionally on other machines) given the same experiment.
//
//	fedserve -config configs/fault-acceptance.yaml -set faults.plan= -addr :7070
//	fedserve -set runtime.deadline=30s -set runtime.quorum=2 -secure
//
// The experiment (-config, -set; see internal/config) determines the task:
// dataset, cohort size training.kt (thinned by runtime.dropout), rounds,
// evaluation schedule, deadline and quorum, aggregation rule and topology,
// codec, scenario. Its canonical digest is published with every
// round announcement, and fedclient refuses a server whose digest is not its
// own. Only -addr and -secure are not part of that identity. Keys a server
// of real processes cannot honor (faults.*, runtime.simnet) are refused.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
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
	r, err := exp.DialIn()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cfg := r.Cfg
	fmt.Fprintf(stdout, "fedserve: experiment %s: %s on %s (secure=%v), %d rounds, %d clients/round, deadline=%v, quorum=%d, scenario=%s\n",
		cfg.ConfigDigest, cfg.Dataset, ln.Addr(), *secure, cfg.Rounds, cfg.Kt, cfg.RoundDeadline, cfg.MinQuorum, cfg.Scenario)
	res, err := core.Serve(cfg, ln, *secure, stdout)
	if err != nil {
		return err
	}
	res.Print(stdout)
	return nil
}
