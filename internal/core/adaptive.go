package core

import (
	"time"

	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// This file implements the adaptive clipping strategies the paper sketches
// in Section IV-C as alternatives to the preset constant bound: clipping at
// the median gradient norm of the client's own data, and clipping tied to a
// decaying learning-rate schedule.

// FedCDPMedian is Fed-CDP with the paper's median-norm clipping: in each
// local iteration the clipping bound is the median of the batch's
// per-example layer-wise gradient norms (capped by MaxC), so the bound
// tracks the decaying gradient magnitude automatically instead of requiring
// a hand-tuned schedule.
type FedCDPMedian struct {
	Sigma float64
	// MaxC caps the data-derived bound (0 = uncapped). A cap keeps early
	// training, where norms are large, from inflating the noise variance.
	MaxC float64
}

var _ fl.Strategy = FedCDPMedian{}

// Name implements fl.Strategy.
func (FedCDPMedian) Name() string { return "fed-cdp(median)" }

// ClientUpdate runs local SGD where each iteration first computes all
// per-example gradients, derives the median layer norms, then clips and
// noises each example at the median.
func (f FedCDPMedian) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	start := time.Now()
	global := tensor.CloneAll(env.Model.Params())
	var normSum float64
	var normN int

	for l := 0; l < env.Cfg.LocalIters; l++ {
		xs, ys := env.Data.Batch(l, env.Cfg.BatchSize)
		// First pass: materialize per-example gradients and layer norms.
		perExample := make([][]*tensor.Tensor, len(xs))
		layerNorms := make([][]float64, 0, len(xs))
		for j, x := range xs {
			_, g := env.Model.ExampleGradient(x, ys[j])
			perExample[j] = g
			norms := make([]float64, len(g))
			for li, gt := range g {
				norms[li] = gt.L2Norm()
			}
			layerNorms = append(layerNorms, norms)
			if l == 0 {
				normSum += tensor.GroupL2Norm(g)
				normN++
			}
		}
		// Median bound per layer across the batch.
		nLayers := len(perExample[0])
		bounds := make([]float64, nLayers)
		for li := 0; li < nLayers; li++ {
			col := make([]float64, len(xs))
			for j := range xs {
				col[j] = layerNorms[j][li]
			}
			c := dp.MedianNorm(col)
			if f.MaxC > 0 && c > f.MaxC {
				c = f.MaxC
			}
			if c <= 0 {
				c = 1e-12 // degenerate batch: keep the mechanism defined
			}
			bounds[li] = c
		}
		// Second pass: sanitize at the median and average. Every example's
		// clip+noise is keyed independently, so the already-materialized
		// gradients fan out over goroutines through the fused batch
		// pipeline.
		batch := tensor.ZerosLike(env.Model.Grads())
		iter := l
		dp.SanitizeBatch(dp.BatchSanitizeJob{
			N:       len(xs),
			Recover: func(int, []*tensor.Tensor) {}, // already materialized
			Sanitize: func(j int, g []*tensor.Tensor) {
				dp.SanitizeCounterLayers(g, bounds, f.Sigma, exampleNoise(*env.Noise, iter, j))
			},
			Bufs:   perExample,
			Accum:  batch,
			Weight: 1 / float64(len(xs)),
		})
		env.Model.SGDStep(env.Cfg.LR, batch)
	}

	stats := fl.ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Since(start)}
	if normN > 0 {
		stats.MeanGradNorm = normSum / float64(normN)
	}
	return fl.Delta(env.Model.Params(), global), stats
}

// ServerSanitize is a no-op: all sanitization happens per example.
func (FedCDPMedian) ServerSanitize(round int, updates [][]*tensor.Tensor, rng *tensor.RNG) {}

// LRScaledClip ties the clipping bound to a decaying learning-rate schedule
// (Section IV-C: "define clipping as a function of learning rate η"):
// C(t) = Alpha · LR0 · Decay^t, floored at Min.
type LRScaledClip struct {
	Alpha float64 // clip-to-lr ratio
	LR0   float64 // initial learning rate
	Decay float64 // per-round multiplicative lr decay (e.g. 0.98)
	Min   float64 // bound floor
}

var _ dp.ClipPolicy = LRScaledClip{}

// Bound returns Alpha·LR0·Decay^round floored at Min.
func (l LRScaledClip) Bound(round, totalRounds int) float64 {
	c := l.Alpha * l.LR0
	for i := 0; i < round; i++ {
		c *= l.Decay
	}
	if c < l.Min {
		return l.Min
	}
	return c
}

// String implements dp.ClipPolicy.
func (l LRScaledClip) String() string {
	return "lr-scaled"
}
