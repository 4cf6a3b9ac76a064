package core

import (
	"time"

	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// sanitizer is the per-example sanitization hook passed to localSGD: it is
// invoked with the local iteration and example index of the gradient group
// it must clip+noise in place, and returns the group's pre-clip L2 norm
// (the first iteration's norm statistic). It must be a pure function of
// (iter, example, g) — noise keyed, never drawn from a mutable stream —
// because localSGD fans a mini-batch's sanitization out over goroutines.
type sanitizer func(iter, example int, g []*tensor.Tensor) float64

// localSGD runs the shared local-training loop: L iterations of batch SGD
// where each example's gradient is passed through sanitize (nil for
// non-private training) before batch averaging. It returns ΔW and stats.
//
// Training executes on the batched GEMM engine: one forward/backward pass
// per mini-batch (Dense as one GEMM, Conv2D as im2col+GEMM), with
// per-example gradients recovered from the batch buffers only when
// sanitization or norm statistics need them. All scratch comes from the
// worker's arena, so steady-state iterations allocate no data buffers; so
// do the global snapshot and the returned ΔW, which the caller owns and a
// wire session hands back to the arena once it is sent. The per-example
// oracle this path is pinned to lives in engine_test.go.
//
// With a sanitizer the per-example stage runs through dp.SanitizeBatch:
// each example is recovered into its own buffer and clip+noised
// concurrently, then folded in example order — the fused pipeline whose
// output is bit-identical at any GOMAXPROCS. The first iteration's norms
// are the ones the sanitizer's clip already summed, so no example is read
// twice for them.
func localSGD(env *fl.ClientEnv, sanitize sanitizer) ([]*tensor.Tensor, fl.ClientStats) {
	start := time.Now()
	model, arena := env.Model, env.Arena
	model.UseArena(arena)
	params := model.Params()
	global := arenaLike(arena, params)
	defer arena.Put(global...)
	for i, g := range global {
		g.CopyFrom(params[i])
	}
	var normSum float64
	var normN int

	batch := arenaLike(arena, model.Grads())
	defer arena.Put(batch...)

	// The mini-batch: BatchInto writes each example straight into a row.
	x := arena.Get(env.Cfg.BatchSize, env.Data.Features())
	defer arena.Put(x)
	ys := make([]int, 0, env.Cfg.BatchSize)

	// Per-example buffers for the sanitize pipeline, or one streaming scratch
	// for the non-private first iteration's norm statistics — drawn from the
	// arena once (batches are always full-size) and reused across
	// iterations.
	var scratch []*tensor.Tensor
	var bufs [][]*tensor.Tensor
	var preNorms []float64
	if sanitize != nil {
		bufs = make([][]*tensor.Tensor, env.Cfg.BatchSize)
		for i := range bufs {
			bufs[i] = arenaLike(arena, model.Grads())
		}
		preNorms = make([]float64, env.Cfg.BatchSize)
		defer func() {
			for _, b := range bufs {
				arena.Put(b...)
			}
		}()
	} else {
		scratch = arenaLike(arena, model.Grads())
		defer arena.Put(scratch...)
	}

	for l := 0; l < env.Cfg.LocalIters; l++ {
		ys = env.Data.BatchInto(x, l, ys)
		model.BatchPassOn(x, ys)
		if sanitize == nil && l > 0 {
			// Non-private fast path: batch-summed gradients straight into
			// the shared buffers — the execution model a conventional
			// framework uses, and the baseline Table III compares against.
			model.ZeroGrads()
			model.AccumBatchGrads()
			model.SGDStep(env.Cfg.LR/float64(len(ys)), model.Grads())
			continue
		}
		// Per-example recovery: Fed-CDP sanitization needs each example's
		// gradient; the first iteration also records gradient norms.
		for _, t := range batch {
			t.Zero()
		}
		first := l == 0
		inv := 1 / float64(len(ys))
		if sanitize != nil {
			iter := l
			dp.SanitizeBatch(dp.BatchSanitizeJob{
				N:       len(ys),
				Recover: model.ExampleGrads,
				Sanitize: func(i int, g []*tensor.Tensor) {
					preNorms[i] = sanitize(iter, i, g)
				},
				Bufs:   bufs,
				Accum:  batch,
				Weight: inv,
			})
			if first {
				for _, n := range preNorms[:len(ys)] {
					normSum += n
				}
				normN += len(ys)
			}
		} else {
			for i := range ys {
				model.ExampleGrads(i, scratch)
				normSum += tensor.GroupL2Norm(scratch)
				normN++
				tensor.AddAllScaled(batch, inv, scratch)
			}
		}
		model.SGDStep(env.Cfg.LR, batch)
	}

	stats := fl.ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Since(start)}
	if normN > 0 {
		stats.MeanGradNorm = normSum / float64(normN)
	}
	// ΔW = local − global, the arithmetic of fl.Delta.
	delta := arenaLike(arena, params)
	for i, d := range delta {
		d.CopyFrom(params[i])
		d.Sub(global[i])
	}
	return delta, stats
}

// arenaLike draws zeroed tensors shaped like ts from the arena (allocating
// when the arena is nil).
func arenaLike(a *tensor.Arena, ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = a.Get(t.Shape()...)
	}
	return out
}

// NonPrivate is standard FedSGD local training with no privacy mechanism.
type NonPrivate struct{}

var _ fl.Strategy = NonPrivate{}

// Name implements fl.Strategy.
func (NonPrivate) Name() string { return "non-private" }

// ClientUpdate runs plain local SGD.
func (NonPrivate) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	return localSGD(env, nil)
}

// Noise stream purpose labels under a client's counter noise key: the first
// Derive label separates the per-example sanitize streams from the
// whole-update stream, so the two can never collide whatever the iteration
// and example indices (see DESIGN.md, "Noise engine").
const (
	noisePerExample = 1
	noiseUpdate     = 2
)

// exampleNoise derives the counter noise stream for one example's
// sanitization: (client key, per-example purpose, iteration, example).
func exampleNoise(noise tensor.CounterRNG, iter, example int) tensor.CounterRNG {
	return noise.Derive(noisePerExample, int64(iter), int64(example))
}

// FedCDP is Algorithm 2: per-example client differential privacy. Each
// example's gradient is clipped layer-wise to Clip.Bound(round) and
// perturbed with Gaussian noise of scale Sigma·C before batch averaging,
// in every local iteration.
type FedCDP struct {
	Clip  dp.ClipPolicy
	Sigma float64
	// FlatClip clips the per-example gradient as one concatenated vector
	// instead of per layer — the Abadi et al. convention, kept as an
	// ablation of the paper's layer-wise choice.
	FlatClip bool
}

var _ fl.Strategy = FedCDP{}

// NewFedCDP returns the paper's Fed-CDP baseline (fixed clipping bound).
func NewFedCDP(c, sigma float64) FedCDP {
	return FedCDP{Clip: dp.FixedClip{C: c}, Sigma: sigma}
}

// NewFedCDPDecay returns Fed-CDP(decay) with a linear clipping schedule
// (the paper decays C from 6 to 2 over the round budget).
func NewFedCDPDecay(from, to, sigma float64) FedCDP {
	return FedCDP{Clip: dp.LinearDecay{From: from, To: to}, Sigma: sigma}
}

// Name implements fl.Strategy.
func (f FedCDP) Name() string {
	if _, fixed := f.Clip.(dp.FixedClip); fixed {
		return "fed-cdp"
	}
	return "fed-cdp(decay)"
}

// ClientUpdate runs local SGD with per-example sanitization. Each example's
// clip+noise is a pure function of (round, client, iteration, example), so
// the whole mini-batch is sanitized in parallel.
func (f FedCDP) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	return localSGD(env, f.sanitizer(env))
}

// sanitizer returns this client round's per-example clip+noise.
func (f FedCDP) sanitizer(env *fl.ClientEnv) sanitizer {
	c := f.Clip.Bound(env.Round, env.Cfg.TotalRounds)
	noise := *env.Noise
	if f.FlatClip {
		return func(l, j int, g []*tensor.Tensor) float64 {
			return dp.SanitizeCounterFlat(g, c, f.Sigma, exampleNoise(noise, l, j))
		}
	}
	return func(l, j int, g []*tensor.Tensor) float64 {
		return dp.SanitizeCounterNorm(g, c, f.Sigma, exampleNoise(noise, l, j))
	}
}

// FedSDP is Algorithm 1: per-client differential privacy. Local training is
// non-private; the round update ΔW is clipped per layer to C and perturbed
// once with Gaussian noise. AtServer selects where the sanitization runs:
// at the client (resilient to type-0 and type-1 leakage) or at the server
// (resilient to type-0 only) — the privacy accounting is identical
// (Section IV-B).
type FedSDP struct {
	C        float64
	Sigma    float64
	AtServer bool
}

var _ fl.Strategy = FedSDP{}

// Name implements fl.Strategy.
func (f FedSDP) Name() string {
	if f.AtServer {
		return "fed-sdp(server)"
	}
	return "fed-sdp"
}

// ClientUpdate runs non-private local SGD; with client-side placement the
// update is sanitized before leaving the client, sharded across cores (the
// update spans the whole model).
func (f FedSDP) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	delta, stats := localSGD(env, nil)
	if !f.AtServer {
		dp.SanitizeCounterPar(delta, f.C, f.Sigma, env.Noise.Derive(noiseUpdate), 0)
	}
	return delta, stats
}

var _ fl.ServerSanitizer = FedSDP{}

// ServerSanitize implements fl.ServerSanitizer: with server-side placement
// update idx is clipped and noised from its own stream keyed by cohort
// position, so the result does not depend on the order updates arrive in.
func (f FedSDP) ServerSanitize(round, idx int, update []*tensor.Tensor, noise tensor.CounterRNG) {
	if !f.AtServer {
		return
	}
	dp.SanitizeCounterPar(update, f.C, f.Sigma, noise.Derive(int64(idx)), 0)
}

// DSSGD is the distributed selective SGD baseline: clients train
// non-privately and share only the ShareFraction largest-magnitude update
// entries (zeroing the rest). It offers no differential-privacy guarantee
// and, per the paper's Figure 4, remains vulnerable to all three leakage
// types.
type DSSGD struct {
	ShareFraction float64 // fraction of update entries shared (e.g. 0.1)
}

var _ fl.Strategy = DSSGD{}

// Name implements fl.Strategy.
func (DSSGD) Name() string { return "dssgd" }

// ClientUpdate trains non-privately and prunes all but the top fraction.
func (d DSSGD) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	delta, stats := localSGD(env, nil)
	dp.Compress(delta, 1-d.ShareFraction)
	return delta, stats
}

// Compressed wraps any strategy with communication-efficient gradient
// pruning: after the inner strategy produces its update, the PruneRatio
// fraction of smallest-magnitude entries is zeroed (Figure 5).
type Compressed struct {
	Inner      fl.Strategy
	PruneRatio float64
}

var _ fl.Strategy = Compressed{}

// Name implements fl.Strategy.
func (c Compressed) Name() string { return c.Inner.Name() + "+compress" }

// ClientUpdate delegates and prunes the resulting update.
func (c Compressed) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	delta, stats := c.Inner.ClientUpdate(env)
	dp.Compress(delta, c.PruneRatio)
	return delta, stats
}

// ServerSanitize implements fl.ServerSanitizer for whatever it wraps:
// fedsdp-server with method.compress is a reachable config, and its pruned
// updates must still meet the server's clip and noise.
func (c Compressed) ServerSanitize(round, idx int, update []*tensor.Tensor, noise tensor.CounterRNG) {
	if san, ok := c.Inner.(fl.ServerSanitizer); ok {
		san.ServerSanitize(round, idx, update, noise)
	}
}
