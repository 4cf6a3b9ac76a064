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

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
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

func main() {
	fmt.Println("cross-silo FL: 8 hospitals, breast-cancer data, 3 rounds (paper Table I)")
	fmt.Println("method          accuracy  epsilon")
	for _, method := range []string{
		core.MethodNonPrivate, core.MethodFedSDP, core.MethodFedCDP, core.MethodFedCDPDecay,
	} {
		exp, err := config.Parse([]byte(scenario))
		if err != nil {
			log.Fatal(err)
		}
		if err := config.Set(exp, "method.name", method); err != nil {
			log.Fatal(err)
		}
		if err := exp.Validate(); err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(exp.CoreConfig())
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

	// What does the server actually see from one hospital?
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 5)
	env := &fl.ClientEnv{
		ClientID: 0, Round: 0,
		Model: buildModel(spec), Data: ds.Client(0),
		RNG: tensor.Split(5, 4, 0, 0),
		Cfg: fl.RoundConfig{BatchSize: 4, LocalIters: 10, LR: 0.1, TotalRounds: 3},
	}
	raw, err := core.LeakRoundUpdate(env, core.Config{Method: core.MethodNonPrivate}, true, tensor.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	noise := fl.ClientNoise(5, 0, 0)
	env2 := &fl.ClientEnv{
		ClientID: 0, Round: 0,
		Model: buildModel(spec), Data: ds.Client(0),
		RNG:   tensor.Split(5, 4, 0, 0),
		Cfg:   fl.RoundConfig{BatchSize: 4, LocalIters: 10, LR: 0.1, TotalRounds: 3},
		Noise: &noise,
	}
	safe, err := core.LeakRoundUpdate(env2, core.Config{Method: core.MethodFedCDP, Clip: 4, Sigma: 6}, true, tensor.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver-side view of one hospital's update (L2 norm):\n")
	fmt.Printf("  non-private: %.4f (structured — reconstructable)\n", tensor.GroupL2Norm(raw))
	fmt.Printf("  fed-cdp:     %.4f (noise-dominated)\n", tensor.GroupL2Norm(safe))
}

func buildModel(spec dataset.Spec) *nn.Model {
	return nn.Build(spec.ModelSpec(), tensor.NewRNG(5))
}
