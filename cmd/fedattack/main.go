// Command fedattack runs a gradient-leakage reconstruction attack against
// the defense an experiment describes and reports the paper's Table VII
// metrics. For image benchmarks it can write the private input and its
// reconstruction as PGM files for visual comparison (Figures 1 and 4).
//
//	fedattack -set method.name=nonprivate -type 2
//	fedattack -set data.dataset=lfw -set method.sigma=6 -type 0 -out /tmp/recon
//	fedattack -set method.name=dssgd -type 1 -mask
//	fedattack -config configs/attack-matrix.yaml -type 2
//
// The experiment (-config, -set; see internal/config) is the victim's:
// dataset, seed, scenario, the defense method.name (core ids: nonprivate,
// fedsdp, fedcdp, fedcdp-decay, dssgd) with its clip, sigma, decay-from
// and share, the aggregation rule, and the fault plan staging the attack —
// a poisoned victim leaks its flipped-label shard view. With
// runtime.simnet the defended federation is first run over the simnet
// fabric and its outcome stamped into the report. The attack's own
// parameters are the flags: -type -batch -client -max-iters -optimizer
// -mask, and -out. -type is the paper's threat type, and what each one reads
// under the experiment's defense is core.Config.Leak's to say: 2 the
// per-example gradient during local training, 1 the batch's round update as
// the client sent it, 0 that update after any server-side step — so
// method.name=fedsdp-server leaks raw to -type 1 and sanitized to -type 0.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedattack:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf config.Flags
	cf.Register(fs)
	atkType := fs.Int("type", 2, "leakage type: 0 (round update at the server), 1 (round update as the client sent it) or 2 (per-example)")
	batch := fs.Int("batch", 3, "batch size for type-0/1 attacks")
	clientID := fs.Int("client", 0, "victim client id")
	maxIters := fs.Int("max-iters", 300, "attack iteration budget T")
	optimizer := fs.String("optimizer", attack.OptLBFGS, "attack optimizer: lbfgs or adam")
	mask := fs.Bool("mask", false, "mask-aware matching (attack only shared entries)")
	out := fs.String("out", "", "directory for PGM dumps of truth/reconstruction (image datasets)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *atkType < 0 || *atkType > 2 {
		return fmt.Errorf("-type %d: the leakage type is 0, 1 or 2", *atkType)
	}
	exp, err := cf.Load()
	if err != nil {
		return err
	}
	// The experiment as core resolves it, so which clients the plan corrupts
	// is the same here and in the runtime.simnet evaluation.
	r, err := exp.CoreConfig().Resolve()
	if err != nil {
		return err
	}
	cfg, spec, plan := r.Cfg, r.Spec, r.Plan
	fmt.Fprintf(stdout, "experiment %s\n", cfg.ConfigDigest)
	// A poisoned victim trains — and therefore leaks — its flipped-label
	// shard view; the reconstruction target is what the attacker would
	// actually observe under the plan.
	cd := fl.AdversaryShard(plan, *clientID, r.FL.Data.Client(*clientID))
	m := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(cfg.Seed))
	noise := tensor.Split(cfg.Seed, 7)

	n := *batch
	if *atkType == 2 {
		n = 1
	}
	truth, labels := cd.Batch(0, n) // the victim's first local batch
	g, err := cfg.Leak(*atkType, 0, m.ExampleGradients(truth, labels), noise)
	if err != nil {
		return err
	}
	gw, gb := g[:m.Layers()], g[m.Layers():]
	if *atkType == 2 {
		labels = []int{attack.InferLabel(gb[m.Layers()-1])}
	}

	res := attack.Reconstruct(m, gw, gb, labels, truth, attack.Config{
		MaxIters:    *maxIters,
		Optimizer:   *optimizer,
		Seed:        cfg.Seed,
		MaskNonzero: *mask,
	})
	fmt.Fprintf(stdout, "dataset=%s method=%s type=%d optimizer=%s\n", cfg.Dataset, cfg.Method, *atkType, *optimizer)
	fmt.Fprintf(stdout, "agg=%q faults=%q simnet=%v victim-poisoned=%v victim-byzantine=%v\n",
		cfg.Aggregation, cfg.Faults, exp.Runtime.Simnet, plan.PoisonedClient(*clientID), plan.ByzantineClient(*clientID))
	if exp.Runtime.Simnet {
		eval, err := core.RunSimnet(cfg)
		if err != nil {
			return err
		}
		folded := 0
		for _, r := range eval.Rounds {
			folded += r.Clients
		}
		acc, _ := eval.FinalAccuracy()
		fmt.Fprintf(stdout, "defense-eval: acc=%.3f eps=%.4f folded=%d rounds=%d\n",
			acc, eval.FinalEpsilon(), folded, len(eval.Rounds))
	}
	fmt.Fprintf(stdout, "revealed=%v match-loss-converged=%v iterations=%d\n", res.Revealed, res.Success, res.Iterations)
	fmt.Fprintf(stdout, "reconstruction-distance=%.4f final-loss=%.3g\n", res.Distance, res.FinalLoss)

	if *out != "" && !spec.IsTabular {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for i, x := range truth {
			if err := writePGM(filepath.Join(*out, fmt.Sprintf("truth_%d.pgm", i)), x, spec); err != nil {
				return err
			}
			if err := writePGM(filepath.Join(*out, fmt.Sprintf("recon_%d.pgm", i)), res.Reconstruction[i], spec); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d truth/reconstruction pairs to %s\n", len(truth), *out)
	}
	return nil
}

// writePGM renders the first channel of an image tensor as an 8-bit PGM.
func writePGM(path string, x *tensor.Tensor, spec dataset.Spec) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", spec.Width, spec.Height)
	d := x.Data()
	for y := 0; y < spec.Height; y++ {
		for xx := 0; xx < spec.Width; xx++ {
			v := min(max(int(d[y*spec.Width+xx]*255), 0), 255)
			fmt.Fprintf(&b, "%d ", v)
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
