// Command fedclient joins a fedserve task as one client: each round it
// downloads the global model, trains locally with the experiment's privacy
// method, and uploads its (possibly sanitized, possibly sparse-encoded)
// update. Transient failures — the server restarting, a missed round, a
// dropped connection — are retried with exponential backoff instead of
// killing the client; it exits cleanly after training.rounds updates, or
// when the server answers that no further rounds remain.
//
//	fedclient -config configs/fault-acceptance.yaml -set faults.plan= -addr 127.0.0.1:7070 -id 3
//
// The experiment (-config, -set; see internal/config) must be the server's:
// the client takes dataset, seed, method and its parameters and codec from
// it, and refuses a server publishing any other config digest — a fleet
// cannot silently train against a different experiment.
// What is not experiment identity stays a flag: -addr, -id, -secure and
// the reconnect policy (-backoff, -max-backoff, -give-up). The keys fedserve
// refuses (faults.*, runtime.simnet) are refused here the same way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fedcdp/internal/config"
	"fedcdp/internal/fl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedclient:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedclient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf config.Flags
	cf.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	id := fs.Int("id", 0, "client id (selects the local shard)")
	secure := fs.Bool("secure", false, "encrypted channel (must match server)")
	minBackoff := fs.Duration("backoff", 100*time.Millisecond, "initial reconnect backoff")
	maxBackoff := fs.Duration("max-backoff", 10*time.Second, "reconnect backoff cap")
	giveUp := fs.Duration("give-up", 2*time.Minute, "exit after this long without a successful round (0 = retry forever)")
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
	cfg, strat, data := r.Cfg, r.FL.Strategy, r.FL.Data.Client(*id)
	// ExpectDigest makes the client refuse a server publishing a different
	// experiment digest.
	opt := fl.ClientOptions{Secure: *secure, Codec: cfg.Codec, ExpectDigest: cfg.ConfigDigest}

	fmt.Fprintf(stdout, "fedclient %d: joining %s as %s, experiment %s\n", *id, *addr, strat.Name(), cfg.ConfigDigest)
	backoff := *minBackoff
	lastSuccess := time.Now()
	next := 0 // the lowest round this client has not completed
	for done := 0; done < cfg.Rounds; {
		round, err := fl.RunRemoteClientRound(*addr, *id, strat, data, r.FL.Model, cfg.Seed, opt)
		switch {
		case err == nil && round < next:
			// The server re-served a round this client already completed
			// (it cannot advance until the rest of the cohort resolves);
			// the re-submission was acknowledged as a duplicate, so it
			// counts for nothing. Poll at the base backoff — each poll
			// retrains a full local round, so hammering is pure waste.
			backoff = *minBackoff
			lastSuccess = time.Now()
			time.Sleep(*minBackoff)
		case err == nil:
			done++
			next = round + 1
			backoff = *minBackoff
			lastSuccess = time.Now()
			fmt.Fprintf(stdout, "fedclient %d: update %d/%d sent (round %d)\n", *id, done, cfg.Rounds, round)
		case errors.Is(err, fl.ErrRoundClosed):
			// The server answered explicitly that no round remains — a
			// clean end of task, not a failure.
			fmt.Fprintf(stdout, "fedclient %d: server finished after %d updates\n", *id, done)
			return nil
		default:
			// Dial errors, EOFs and resets from a restarting server,
			// missed rounds: survive them all and retry with exponential
			// backoff. A server that shuts down can only answer sessions
			// it already accepted, so -give-up bounds how long a client
			// keeps probing a peer that went away for good.
			if *giveUp > 0 && time.Since(lastSuccess) > *giveUp {
				return fmt.Errorf("giving up after %v without a successful round: %w", *giveUp, err)
			}
			fmt.Fprintf(stdout, "fedclient %d: %v — retrying in %v\n", *id, err, backoff)
			time.Sleep(backoff)
			if backoff *= 2; backoff > *maxBackoff {
				backoff = *maxBackoff
			}
		}
	}
	fmt.Fprintf(stdout, "fedclient %d: done\n", *id)
	return nil
}
