package attack

import (
	"math"

	"fedcdp/internal/tensor"
)

func sigmoidF(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func tanhF(x float64) float64 { return math.Tanh(x) }

func ln(x float64) float64 { return math.Log(x) }

// softmax returns the stable softmax of logits as a new tensor.
func softmax(logits *tensor.Tensor) *tensor.Tensor {
	out := logits.Clone()
	d := out.Data()
	maxV := math.Inf(-1)
	for _, v := range d {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range d {
		e := math.Exp(v - maxV)
		d[i] = e
		sum += e
	}
	for i := range d {
		d[i] /= sum
	}
	return out
}

// RMSE is the paper's attack reconstruction distance: the root mean squared
// deviation between the reconstructed and true inputs.
func RMSE(a, b *tensor.Tensor) float64 {
	if a.Len() != b.Len() {
		panic("attack: RMSE length mismatch")
	}
	var s float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		d := ad[i] - bd[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(ad)))
}

// PatternedSeed returns the attack's initialization: a small random patch
// tiled across the input (the "patterned random" initialization that the
// CPL framework found to maximize attack success rate and convergence).
func PatternedSeed(n int, rng *tensor.RNG) *tensor.Tensor {
	const patch = 16
	vals := make([]float64, patch)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	out := tensor.New(n)
	d := out.Data()
	for i := range d {
		d[i] = vals[i%patch]
	}
	return out
}

// InferLabel implements the iDLG label-inference trick: with softmax
// cross-entropy, the last-layer bias gradient is p − onehot(y), so the only
// negative entry marks the true label. Works on any single-example leak,
// including noisy ones (argmin is noise-robust for moderate σ).
func InferLabel(lastLayerBiasGrad *tensor.Tensor) int {
	best, bestIdx := math.Inf(1), 0
	for i, v := range lastLayerBiasGrad.Data() {
		if v < best {
			best = v
			bestIdx = i
		}
	}
	return bestIdx
}

// applyMask zeroes every entry of t where mask is zero. Masked residuals and
// their adjoints share the same tensor, so masking once is sufficient for
// the second-order chain.
func applyMask(t, mask *tensor.Tensor) {
	td, md := t.Data(), mask.Data()
	for i := range td {
		if md[i] == 0 {
			td[i] = 0
		}
	}
}

// NonzeroMask returns 0/1 masks marking the nonzero entries of each tensor —
// the information a selective-sharing adversary has about which gradient
// entries were actually transmitted.
func NonzeroMask(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		m := tensor.New(t.Shape()...)
		md, td := m.Data(), t.Data()
		for j, v := range td {
			if v != 0 {
				md[j] = 1
			}
		}
		out[i] = m
	}
	return out
}

func clamp01InPlace(t *tensor.Tensor) {
	d := t.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		} else if v > 1 {
			d[i] = 1
		}
	}
}
