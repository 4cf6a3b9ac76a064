package core

import (
	"fmt"

	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/tensor"
)

// Leakage extraction: what each adversary of the paper's threat model
// observes (Section III) under the configured defense, so attack
// experiments can be run against any method. The oracle works on plain
// gradient lists, so the attack MLP and an nn.Model share it.
//
//   - type-2: the per-example gradient during local training. Under Fed-CDP
//     this is the sanitized gradient (clipping and noise are applied the
//     moment a layer's gradient is computed); under every other method the
//     raw gradient is exposed.
//   - type-1: the client's round update as it leaves the client. Fed-SDP
//     with client-side noise exposes the sanitized update; Fed-SDP with
//     server-side noise exposes the raw one.
//   - type-0: the round update as intercepted at the server, i.e. after any
//     client-side or server-side sanitization.

// mechanism places a method's defense: on each example's gradient as local
// training computes it, on the round update before it leaves the client, or
// on the update at the server.
type mechanism struct {
	example, client, server func(g []*tensor.Tensor, rng *tensor.RNG)
}

// raw is the stage of a mechanism that leaves the gradient as it found it.
func raw([]*tensor.Tensor, *tensor.RNG) {}

// mechanism is the threat-model table: the one method → observation switch.
// Clip, σ, the decay schedule and the share fraction are the Config's, with
// the paper's defaults for unset ones; round positions the decay schedule
// over the planned horizon.
func (c Config) mechanism(round int) (mechanism, error) {
	c = c.withDefaults(dataset.Spec{})
	sanitize := func(clip float64) func([]*tensor.Tensor, *tensor.RNG) {
		return func(g []*tensor.Tensor, rng *tensor.RNG) { dp.Sanitize(g, clip, c.Sigma, rng) }
	}
	m := mechanism{raw, raw, raw}
	switch c.Method {
	case MethodNonPrivate, "":
	case MethodFedSDP:
		m.client = sanitize(c.Clip)
	case MethodFedSDPSrv:
		m.server = sanitize(c.Clip)
	case MethodFedCDP:
		m.example = sanitize(c.Clip)
	case MethodFedCDPDecay:
		decay := dp.LinearDecay{From: c.DecayFrom, To: c.DecayTo}
		m.example = sanitize(decay.Bound(round, max(c.Rounds, c.PlannedRounds)))
	case MethodDSSGD:
		m.client = func(g []*tensor.Tensor, _ *tensor.RNG) { dp.Compress(g, 1-c.ShareFraction) }
	default:
		return m, fmt.Errorf("core: unknown method %q (have %v)", c.Method, Methods())
	}
	return m, nil
}

// Leak returns what an adversary of the given threat type reads at a client
// in the given round, from the raw per-example gradients of one local batch
// (consumed). Type 2 reads the first example's gradient as local training
// exposes it: sanitized under Fed-CDP, raw under every per-client mechanism.
// Types 1 and 0 read the batch's shared update — the mean, each example
// passing the per-example mechanism first — as the client sent it and after
// any server-side step. A run that compresses what it shares (Figure 5)
// prunes either view.
func (c Config) Leak(threat, round int, examples [][]*tensor.Tensor, rng *tensor.RNG) ([]*tensor.Tensor, error) {
	m, err := c.mechanism(round)
	if err != nil {
		return nil, err
	}
	switch threat {
	case 2:
		g := examples[0]
		m.example(g, rng)
		dp.Compress(g, c.CompressRatio)
		return g, nil
	case 0, 1:
		update := tensor.ZerosLike(examples[0])
		inv := 1 / float64(len(examples))
		for _, g := range examples {
			m.example(g, rng)
			tensor.AddAllScaled(update, inv, g)
		}
		m.client(update, rng)
		dp.Compress(update, c.CompressRatio)
		if threat == 0 {
			m.server(update, rng)
		}
		return update, nil
	}
	return nil, fmt.Errorf("core: the threat type is 0, 1 or 2, not %d", threat)
}
