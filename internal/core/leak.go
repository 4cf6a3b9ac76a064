package core

import (
	"fmt"

	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/tensor"
)

// Leak returns what an adversary of the paper's threat model (Section III)
// of the given type reads at a client in the given round, from the raw
// per-example gradients of one local batch (consumed), under the method
// row's mechanism:
//
//   - type 2 reads the first example's gradient as local training computes
//     it: sanitized under a per-example placement (Fed-CDP), raw otherwise;
//   - type 1 reads the batch's shared update — the mean, each example
//     passing the per-example stage first — as it leaves the client;
//   - type 0 reads that update at the server, after any server-side stage.
//
// A run that compresses what it shares (Figure 5) prunes either view. The
// oracle works on plain gradient lists, so the attack MLP and an nn.Model
// share it.
func (c Config) Leak(threat, round int, examples [][]*tensor.Tensor, rng *tensor.RNG) ([]*tensor.Tensor, error) {
	m, err := lookupMethod(c.Method)
	if err != nil {
		return nil, err
	}
	// stage runs the row's mechanism on g if it sits at p, with the paper's
	// defaults for an unset clip, σ, decay schedule or share fraction.
	c = c.withDefaults(dataset.Spec{})
	stage := func(p placement, g []*tensor.Tensor) {
		if m.at == p {
			m.stage(c, round, g, rng)
		}
	}
	switch threat {
	case 2:
		g := examples[0]
		stage(perExample, g)
		dp.Compress(g, c.CompressRatio)
		return g, nil
	case 0, 1:
		update := tensor.ZerosLike(examples[0])
		inv := 1 / float64(len(examples))
		for _, g := range examples {
			stage(perExample, g)
			tensor.AddAllScaled(update, inv, g)
		}
		stage(clientUpdate, update)
		dp.Compress(update, c.CompressRatio)
		if threat == 0 {
			stage(serverUpdate, update)
		}
		return update, nil
	}
	return nil, fmt.Errorf("core: the threat type is 0, 1 or 2, not %d", threat)
}
