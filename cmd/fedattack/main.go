// Command fedattack runs a gradient-leakage reconstruction attack against a
// chosen defense and reports the paper's Table VII metrics. For image
// benchmarks it can write the private input and its reconstruction as PGM
// files for visual comparison (Figures 1 and 4).
//
// Examples:
//
//	fedattack -dataset mnist -method non-private -type 2
//	fedattack -dataset lfw -method fed-cdp -type 0 -out /tmp/recon
//	fedattack -dataset mnist -method dssgd -type 1 -mask
//	fedattack -config configs/attack-matrix.yaml -type 2
//
// -config loads a declarative experiment file (see internal/config): the
// victim's dataset, defense, scenario, aggregation rule and fault plan
// come from the file, with flags given alongside as overrides. The config
// stores core method ids (fedcdp, ...); they are translated to and from
// this command's paper-style defense names (fed-cdp, ...).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Defense-evaluation context (-faults/-simnet): the small federation the
// leakage attack is staged inside when a plan or a fabric evaluation is
// requested.
const (
	evalClients = 10
	evalCohort  = 4
	evalRounds  = 3
)

func main() {
	dsName := flag.String("dataset", "mnist", "benchmark dataset")
	method := flag.String("method", "non-private", "defense: non-private, fed-sdp, fed-cdp, fed-cdp(decay), dssgd")
	atkType := flag.Int("type", 2, "leakage type: 0/1 (batched round update) or 2 (per-example)")
	batch := flag.Int("batch", 3, "batch size for type-0/1 attacks")
	clientID := flag.Int("client", 0, "victim client id")
	maxIters := flag.Int("max-iters", 300, "attack iteration budget T")
	optimizer := flag.String("optimizer", attack.OptLBFGS, "attack optimizer: lbfgs or adam")
	mask := flag.Bool("mask", false, "mask-aware matching (attack only shared entries)")
	scenario := flag.String("scenario", "", "victim data-heterogeneity scenario: "+strings.Join(dataset.ScenarioNames(), ", ")+" (default iid)")
	alpha := flag.Float64("alpha", 0, "dirichlet concentration (0 = default 0.5)")
	shards := flag.Int("shards", 0, "pathological label shards per client (0 = default 2)")
	seed := flag.Int64("seed", 42, "root seed")
	out := flag.String("out", "", "directory for PGM dumps of truth/reconstruction (image datasets)")
	aggRule := flag.String("agg", "", "aggregation rule the defense evaluation folds under: fedsgd (default), fedavg, weighted, or robust — median, trimmed[:beta], krum[:f]")
	faults := flag.String("faults", "", "adversarial fault plan staging the attack, e.g. 'byzantine=2:signflip,poison=1:0.8' (see DESIGN.md); a poisoned victim leaks its flipped-label shard view")
	simnetEval := flag.Bool("simnet", false, "first evaluate the defended federation over the simnet fabric under -agg/-faults, and stamp its outcome into the report")
	cfgPath := flag.String("config", "", "declarative experiment config file; flags given alongside override it (see DESIGN.md, \"Experiment configs\")")
	flag.Parse()

	digest := ""
	if *cfgPath != "" {
		exp, cerr := config.Load(*cfgPath)
		if cerr != nil {
			fatal(cerr)
		}
		// The config schema stores core method ids; the flag speaks this
		// command's paper-style defense names, so translate on the way in
		// (override source) and on the way out (effective value).
		flagSrc := config.FromCore(core.Config{
			Dataset: *dsName, Method: coreMethod(*method),
			Scenario:    dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards},
			Aggregation: *aggRule, Faults: *faults, Seed: *seed,
		}, *simnetEval)
		config.ApplyFlagOverrides(flag.CommandLine, exp, flagSrc)
		if err := exp.Validate(); err != nil {
			fatal(err)
		}
		*dsName, *method = exp.Data.Dataset, attackMethod(exp.Method.Name)
		*scenario, *alpha, *shards = exp.Data.Scenario, exp.Data.Alpha, exp.Data.Shards
		*aggRule, *faults, *seed = exp.Aggregation.Rule, exp.Faults.Plan, exp.Seed
		*simnetEval = *simnetEval || exp.Runtime.Simnet
		digest = exp.Digest()
		fmt.Printf("config=%s digest=%s\n", *cfgPath, digest)
	}

	spec, err := dataset.Get(*dsName)
	if err != nil {
		fatal(err)
	}
	if !fl.ValidAggregation(*aggRule) {
		fatal(fmt.Errorf("unknown aggregation rule %q", *aggRule))
	}
	plan, err := simnet.ParsePlan(*faults)
	if err != nil {
		fatal(err)
	}
	if plan, err = plan.Bind(*seed, evalRounds, evalClients); err != nil {
		fatal(err)
	}
	part, err := dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards}.Partitioner()
	if err != nil {
		fatal(err)
	}
	ds := dataset.NewPartitioned(spec, *seed, part)
	cd := ds.Client(*clientID)
	// A poisoned victim trains — and therefore leaks — its flipped-label
	// shard view; the reconstruction target is what the attacker would
	// actually observe under the plan.
	cd = fl.AdversaryShard(plan, *clientID, cd)
	m := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(*seed))
	noise := tensor.Split(*seed, 7)

	var truth []*tensor.Tensor
	var labels []int
	var gw, gb []*tensor.Tensor
	if *atkType == 2 {
		x, y := cd.Get(0)
		truth, labels = []*tensor.Tensor{x}, []int{y}
		_, gw, gb = m.Gradients(x, y)
		sanitizePerExample(gw, gb, *method, noise)
		labels = []int{attack.InferLabel(gb[m.Layers()-1])}
	} else {
		truth = make([]*tensor.Tensor, *batch)
		labels = make([]int, *batch)
		gw, gb = batchGradients(m, cd, truth, labels, *method, noise)
	}

	res := attack.Reconstruct(m, gw, gb, labels, truth, attack.Config{
		MaxIters:    *maxIters,
		Optimizer:   *optimizer,
		Seed:        *seed,
		MaskNonzero: *mask,
	})
	fmt.Printf("dataset=%s method=%s type=%d optimizer=%s\n", *dsName, *method, *atkType, *optimizer)
	agg := *aggRule
	if agg == "" {
		agg = fl.AggFedSGD
	}
	fmt.Printf("agg=%s faults=%q simnet=%v victim-poisoned=%v victim-byzantine=%v\n",
		agg, *faults, *simnetEval, plan.PoisonedClient(*clientID), plan.ByzantineClient(*clientID))
	if *simnetEval {
		eval, err := core.RunSimnet(core.Config{
			Dataset: *dsName,
			Method:  coreMethod(*method),
			K:       evalClients, Kt: evalCohort, Rounds: evalRounds,
			LocalIters:   2,
			Sigma:        6,
			Seed:         *seed,
			ValExamples:  60,
			EvalEvery:    1,
			Scenario:     dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards},
			Faults:       *faults,
			Aggregation:  *aggRule,
			ConfigDigest: digest,
		})
		if err != nil {
			fatal(err)
		}
		folded := 0
		for _, r := range eval.Rounds {
			folded += r.Clients
		}
		acc, _ := eval.FinalAccuracy()
		fmt.Printf("defense-eval: acc=%.3f eps=%.4f folded=%d rounds=%d\n",
			acc, eval.FinalEpsilon(), folded, len(eval.Rounds))
	}
	fmt.Printf("revealed=%v match-loss-converged=%v iterations=%d\n", res.Revealed, res.Success, res.Iterations)
	fmt.Printf("reconstruction-distance=%.4f final-loss=%.3g\n", res.Distance, res.FinalLoss)

	if *out != "" && !spec.IsTabular {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		for i, x := range truth {
			writePGM(filepath.Join(*out, fmt.Sprintf("truth_%d.pgm", i)), x, spec)
			writePGM(filepath.Join(*out, fmt.Sprintf("recon_%d.pgm", i)), res.Reconstruction[i], spec)
		}
		fmt.Printf("wrote %d truth/reconstruction pairs to %s\n", len(truth), *out)
	}
}

// attackMethod maps core method ids back onto this command's paper-style
// defense names — the inverse of coreMethod, for config-driven runs.
func attackMethod(method string) string {
	switch method {
	case core.MethodNonPrivate:
		return "non-private"
	case core.MethodFedSDP, core.MethodFedSDPSrv:
		return "fed-sdp"
	case core.MethodFedCDP:
		return "fed-cdp"
	case core.MethodFedCDPDecay:
		return "fed-cdp(decay)"
	case core.MethodDSSGD:
		return "dssgd"
	default:
		return method
	}
}

// coreMethod maps fedattack's paper-style defense names onto core's method
// ids for the -simnet defense evaluation. fed-sdp means client-side
// placement: the simnet round servers do not sanitize, and the accounting
// is the same for both placements (Section IV-B).
func coreMethod(method string) string {
	switch method {
	case "non-private":
		return core.MethodNonPrivate
	case "fed-sdp":
		return core.MethodFedSDP
	case "fed-cdp":
		return core.MethodFedCDP
	case "fed-cdp(decay)":
		return core.MethodFedCDPDecay
	case "dssgd":
		return core.MethodDSSGD
	default:
		return method
	}
}

// sanitizePerExample applies the defense's type-2 semantics in place.
func sanitizePerExample(gw, gb []*tensor.Tensor, method string, rng *tensor.RNG) {
	switch method {
	case "fed-cdp":
		dp.Sanitize(dp.JoinGrads(gw, gb), 4, 6, rng)
	case "fed-cdp(decay)":
		dp.Sanitize(dp.JoinGrads(gw, gb), 6, 6, rng)
	}
}

// batchGradients computes the leaked batched update for type-0/1 attacks.
func batchGradients(m *attack.MLP, cd *dataset.ClientData, truth []*tensor.Tensor, labels []int, method string, rng *tensor.RNG) (gw, gb []*tensor.Tensor) {
	L := m.Layers()
	gw = make([]*tensor.Tensor, L)
	gb = make([]*tensor.Tensor, L)
	for l := 0; l < L; l++ {
		gw[l] = tensor.New(m.Sizes[l+1], m.Sizes[l])
		gb[l] = tensor.New(m.Sizes[l+1])
	}
	inv := 1 / float64(len(truth))
	for j := range truth {
		x, y := cd.Get(j)
		truth[j], labels[j] = x, y
		_, w, b := m.Gradients(x, y)
		if method == "fed-cdp" {
			dp.Sanitize(dp.JoinGrads(w, b), 4, 6, rng)
		} else if method == "fed-cdp(decay)" {
			dp.Sanitize(dp.JoinGrads(w, b), 6, 6, rng)
		}
		for l := 0; l < L; l++ {
			gw[l].AddScaled(inv, w[l])
			gb[l].AddScaled(inv, b[l])
		}
	}
	switch method {
	case "fed-sdp":
		dp.Sanitize(dp.JoinGrads(gw, gb), 4, 6, rng)
	case "dssgd":
		dp.Compress(dp.JoinGrads(gw, gb), 0.9)
	}
	return gw, gb
}

// writePGM renders the first channel of an image tensor as an 8-bit PGM.
func writePGM(path string, x *tensor.Tensor, spec dataset.Spec) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "P2\n%d %d\n255\n", spec.Width, spec.Height)
	d := x.Data()
	for y := 0; y < spec.Height; y++ {
		for xx := 0; xx < spec.Width; xx++ {
			v := int(d[y*spec.Width+xx] * 255)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			fmt.Fprintf(f, "%d ", v)
		}
		fmt.Fprintln(f)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedattack:", err)
	os.Exit(1)
}
