// Commefficient: communication-efficient federated learning (Figure 5 of
// the paper). Clients prune the smallest gradient entries before sharing;
// the example sweeps prune ratios and shows that compression barely hurts
// accuracy but does NOT stop type-2 leakage unless Fed-CDP is used.
//
//	go run ./examples/commefficient
package main

import (
	"fmt"
	"log"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/tensor"
)

func main() {
	spec, err := dataset.Get("mnist")
	if err != nil {
		log.Fatal(err)
	}
	ds := dataset.New(spec, 11)
	x, y := ds.Client(0).Get(0)
	victim := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(11))

	fmt.Println("prune%  acc(non-private)  acc(fed-cdp)  t2-dist(non-private)  t2-dist(fed-cdp)")
	for _, ratio := range []float64{0, 0.3, 0.7} {
		accNP := trainWith(core.MethodNonPrivate, ratio)
		accCDP := trainWith(core.MethodFedCDP, ratio)

		distNP := attackCompressed(victim, x, y, ratio, false)
		distCDP := attackCompressed(victim, x, y, ratio, true)
		fmt.Printf("%5.0f%%  %16.3f  %12.3f  %20.4f  %16.4f\n",
			ratio*100, accNP, accCDP, distNP, distCDP)
	}
	fmt.Println("\nacc columns are trained at σ=0.06 (the paper's σ=6 × the 1/100 noise compensation, see")
	fmt.Println("DESIGN.md); t2-dist(fed-cdp) attacks a gradient sanitized at the paper's verbatim σ=6.")
	fmt.Println("compressed non-private gradients still reconstruct the private image;")
	fmt.Println("Fed-CDP sanitization defeats the attack at every compression level.")
}

// trainWith runs a small federated job with gradient pruning at the ratio,
// declared through the config layer: one document per (method, ratio) cell,
// so each cell has its own experiment digest.
func trainWith(method string, ratio float64) float64 {
	doc := fmt.Sprintf(`
seed: 11
method:
  name: %s
  sigma: 0.06
  compress: %g
training:
  k: 12
  kt: 6
  rounds: 10
  iters: 20
  val-examples: 150
  eval-every: 100
`, method, ratio)
	exp, err := config.Parse([]byte(doc))
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(exp.CoreConfig())
	if err != nil {
		log.Fatal(err)
	}
	acc, _ := res.FinalAccuracy()
	return acc
}

// attackCompressed runs the mask-aware type-2 attack on a compressed
// per-example gradient, optionally Fed-CDP sanitized first.
func attackCompressed(m *attack.MLP, x *tensor.Tensor, y int, ratio float64, sanitized bool) float64 {
	_, gw, gb := m.Gradients(x, y)
	if sanitized {
		dp.Sanitize(dp.JoinGrads(gw, gb), 4, 6, tensor.NewRNG(99))
	}
	dp.Compress(dp.JoinGrads(gw, gb), ratio)
	res := attack.Reconstruct(m, gw, gb, []int{y}, []*tensor.Tensor{x},
		attack.Config{Seed: 3, MaskNonzero: ratio > 0, MaxIters: 200})
	return res.Distance
}
