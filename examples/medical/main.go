// Medical: cross-silo federated learning on the synthetic breast-cancer
// benchmark — the paper's smallest dataset, where every hospital (client)
// holds a full copy of the data and trains for only 3 rounds. Compares all
// methods' accuracy and privacy, and runs the round-update leakage attack a
// curious aggregation server could mount.
//
//	go run ./examples/medical
package main

import (
	"fmt"
	"log"
	"strings"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// The cross-silo scenario as one config document; the method sweep below
// sets method.name per run the way `fedtrain -config ... -set method.name=m`
// does, each override re-stamping the experiment's identity.
const scenario = `
version: 1
seed: 5

data:
  dataset: cancer

method:
  sigma: 0.06
  accountant-sigma: 6   # see DESIGN.md on noise scaling

training:
  k: 8
  kt: 8
  rounds: 3
  iters: 50
  val-examples: 143
  eval-every: 100
`

// experiment is the scenario with the given overrides, validated.
func experiment(sets ...string) *config.Experiment {
	exp, err := config.Parse([]byte(scenario))
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range sets {
		key, value, _ := strings.Cut(s, "=")
		if err := config.Set(exp, key, value); err != nil {
			log.Fatal(err)
		}
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}
	return exp
}

func main() {
	fmt.Println("cross-silo FL: 8 hospitals, breast-cancer data, 3 rounds (paper Table I)")
	fmt.Println("method          accuracy  epsilon")
	for _, method := range []string{
		core.MethodNonPrivate, core.MethodFedSDP, core.MethodFedCDP, core.MethodFedCDPDecay,
	} {
		res, err := core.Run(experiment("method.name=" + method).CoreConfig())
		if err != nil {
			log.Fatal(err)
		}
		eps := "      -"
		if res.FinalEpsilon() > 0 {
			eps = fmt.Sprintf("%7.4f", res.FinalEpsilon())
		}
		acc, _ := res.FinalAccuracy()
		fmt.Printf("%-14s  %8.4f  %s\n", res.Strategy, acc, eps)
	}

	// What does the server actually see from one hospital? The same
	// experiment, read by the threat-model oracle: the type-0 view of the
	// first local batch's update, Fed-CDP at the paper's verbatim σ = 6.
	fmt.Printf("\nserver-side view of one hospital's update (L2 norm):\n")
	fmt.Printf("  non-private: %.4f (structured — reconstructable)\n", serverView("method.name="+core.MethodNonPrivate))
	fmt.Printf("  fed-cdp:     %.4f (noise-dominated)\n", serverView("method.name="+core.MethodFedCDP, "method.sigma=6"))
}

// serverView is the L2 norm of hospital 0's first-batch update as a curious
// aggregation server reads it under the experiment's defense.
func serverView(sets ...string) float64 {
	exp := experiment(sets...)
	r, err := exp.CoreConfig().Resolve()
	if err != nil {
		log.Fatal(err)
	}
	model := nn.Build(r.FL.Model, tensor.NewRNG(exp.Seed))
	xs, ys := r.FL.Data.Client(0).Batch(0, r.Cfg.BatchSize)
	examples := make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		_, examples[i] = model.ExampleGradient(x, ys[i])
	}
	update, err := r.Cfg.Leak(0, 0, examples, tensor.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	return tensor.GroupL2Norm(update)
}
