// Command fedtrain runs one federated-learning experiment and prints
// per-round accuracy and privacy spending. The experiment is a config file
// (see internal/config and DESIGN.md, "Experiment configs"); -set edits one
// key of it for this run, type-checked and digested as if the file said so.
// Without -config the experiment is config.Default().
//
//	fedtrain -config configs/fault-acceptance.yaml
//	fedtrain -config configs/fault-acceptance.yaml -set method.sigma=0.1
//	fedtrain -set data.dataset=cancer -set method.name=fedsdp -set training.k=100 -set training.kt=10
//	fedtrain -set data.scenario=dirichlet -set data.alpha=0.1
//	fedtrain -set data.dataset=cancer -set runtime.simnet=true -set faults.plan=latency=20ms,crash=2
//	fedtrain -config configs/scale-100k.yaml
//
// faults.plan injects a deterministic fault plan (see DESIGN.md, "Simnet")
// into the in-process runtime; runtime.simnet additionally runs the whole
// federation — server, per-client RPC sessions, restarts — over the
// in-memory simnet fabric on virtual time. A sweep block in the file fans
// the run out over its seeds, -sweep-workers at a time.
//
// -checkpoint-out writes a resumable checkpoint after the run.
// -checkpoint-in resumes one: the experiment is then the checkpoint's, and
// the only key that may be set is training.rounds, the further rounds to
// run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedtrain:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf config.Flags
	cf.Register(fs)
	ckptOut := fs.String("checkpoint-out", "", "write a resumable checkpoint here after the run")
	ckptIn := fs.String("checkpoint-in", "", "resume from this checkpoint; only -set training.rounds=n (the further rounds) may accompany it")
	sweepWorkers := fs.Int("sweep-workers", 0, "parallel runs for a config sweep block (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptIn != "" {
		if cf.Path != "" {
			return fmt.Errorf("-config %s cannot accompany -checkpoint-in: the checkpoint carries its own experiment", cf.Path)
		}
		for _, s := range cf.Sets {
			if key, _, _ := strings.Cut(s, "="); key != "training.rounds" {
				return fmt.Errorf("-set %s cannot accompany -checkpoint-in: the checkpoint carries its own experiment, and only training.rounds (the further rounds) may be set", key)
			}
		}
	}
	exp, err := cf.Load()
	if err != nil {
		return err
	}

	var res *core.Result
	switch runs := exp.Expand(); {
	case *ckptIn != "":
		ckpt, err := core.LoadCheckpointFile(*ckptIn)
		if err != nil {
			return err
		}
		if res, err = ckpt.Resume(exp.Training.Rounds); err != nil {
			return err
		}
	case len(runs) > 1:
		if *ckptOut != "" {
			return fmt.Errorf("-checkpoint-out is ambiguous over a sweep; checkpoint a single-seed config instead")
		}
		return runSweep(runs, *sweepWorkers, stdout)
	default:
		src := cf.Path
		if src == "" {
			src = "default"
		}
		fmt.Fprintf(stdout, "config=%s digest=%s\n", src, exp.Digest())
		if res, err = runOne(exp); err != nil {
			return err
		}
	}
	if *ckptOut != "" {
		if err := core.CheckpointFrom(res).SaveFile(*ckptOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *ckptOut)
	}
	res.Print(stdout)
	return nil
}

// runSweep executes a config's expanded multi-seed runs in parallel across
// cores. Each run is an independent seeded experiment (parallelism cannot
// change any result), so output is collected per run and printed in sweep
// order once everything finishes.
func runSweep(runs []*config.Experiment, workers int, stdout io.Writer) error {
	lines := make([]string, len(runs))
	err := config.RunSweep(runs, workers, func(i int, e *config.Experiment) error {
		res, rerr := runOne(e)
		if rerr != nil {
			return fmt.Errorf("seed %d: %w", e.Seed, rerr)
		}
		acc, _ := res.FinalAccuracy()
		best, _ := res.BestAccuracy()
		lines[i] = fmt.Sprintf("seed=%-6d digest=%s accuracy=%.4f best=%.4f epsilon=%.4f",
			e.Seed, e.Digest(), acc, best, res.FinalEpsilon())
		return nil
	})
	fmt.Fprintf(stdout, "sweep: %d seeds\n", len(runs))
	for _, l := range lines {
		if l != "" {
			fmt.Fprintln(stdout, l)
		}
	}
	return err
}

func runOne(e *config.Experiment) (*core.Result, error) {
	cfg := e.CoreConfig()
	if e.Runtime.Simnet {
		return core.RunSimnet(cfg)
	}
	return core.Run(cfg)
}
