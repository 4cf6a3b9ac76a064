package dp

import (
	"fmt"
	"math"
	"sync"

	"fedcdp/internal/tensor"
)

// ClipPolicy yields the clipping bound C for a given federated round. The
// paper's baseline uses a constant bound; Fed-CDP(decay) tracks the decaying
// gradient L2 norm with a decreasing schedule (Section VI).
type ClipPolicy interface {
	// Bound returns C for round t of totalRounds (both 0-based/t<total).
	Bound(round, totalRounds int) float64
	// String describes the policy for logs and experiment records.
	String() string
}

// FixedClip is the constant clipping bound used by Abadi et al. and the
// Fed-CDP baseline (default C=4).
type FixedClip struct{ C float64 }

// Bound returns the constant bound.
func (f FixedClip) Bound(round, totalRounds int) float64 { return f.C }

// String implements ClipPolicy.
func (f FixedClip) String() string { return fmt.Sprintf("fixed(C=%g)", f.C) }

// LinearDecay interpolates the bound linearly From→To across the round
// budget; the paper's Fed-CDP(decay) uses 6→2 over 100 rounds.
type LinearDecay struct{ From, To float64 }

// Bound returns the linearly interpolated bound for the round.
func (l LinearDecay) Bound(round, totalRounds int) float64 {
	if totalRounds <= 1 {
		return l.From
	}
	frac := float64(round) / float64(totalRounds-1)
	if frac > 1 {
		frac = 1
	}
	return l.From + (l.To-l.From)*frac
}

// String implements ClipPolicy.
func (l LinearDecay) String() string { return fmt.Sprintf("linear(%g->%g)", l.From, l.To) }

// ExpDecay multiplies the initial bound by Rate^round, floored at Min.
type ExpDecay struct {
	From, Rate, Min float64
}

// Bound returns From·Rate^round floored at Min.
func (e ExpDecay) Bound(round, totalRounds int) float64 {
	c := e.From * math.Pow(e.Rate, float64(round))
	if c < e.Min {
		return e.Min
	}
	return c
}

// String implements ClipPolicy.
func (e ExpDecay) String() string {
	return fmt.Sprintf("exp(%g,rate=%g,min=%g)", e.From, e.Rate, e.Min)
}

// StepDecay multiplies the bound by Factor every Every rounds, floored at Min.
type StepDecay struct {
	From, Factor float64
	Every        int
	Min          float64
}

// Bound returns the step-scheduled bound.
func (s StepDecay) Bound(round, totalRounds int) float64 {
	if s.Every <= 0 {
		return s.From
	}
	c := s.From * math.Pow(s.Factor, float64(round/s.Every))
	if c < s.Min {
		return s.Min
	}
	return c
}

// String implements ClipPolicy.
func (s StepDecay) String() string {
	return fmt.Sprintf("step(%g,x%g/%d,min=%g)", s.From, s.Factor, s.Every, s.Min)
}

// ClipLayers clips every tensor independently to L2 norm c, implementing the
// paper's layer-wise clipping (Algorithm 2 lines 8–12 / Algorithm 1 lines
// 7–10). It returns the pre-clip norms of each layer.
func ClipLayers(grads []*tensor.Tensor, c float64) []float64 {
	norms := make([]float64, len(grads))
	for i, g := range grads {
		norms[i] = g.ClipL2(c)
	}
	return norms
}

// AddGaussian adds i.i.d. N(0, (sigma·sensitivity)²) noise to every tensor,
// the Gaussian mechanism of Definition 2 with S set from the clipping bound.
func AddGaussian(grads []*tensor.Tensor, sigma, sensitivity float64, rng *tensor.RNG) {
	std := sigma * sensitivity
	for _, g := range grads {
		rng.AddNormal(g, std)
	}
}

// Sanitize clips per layer to bound c and then adds Gaussian noise with
// sensitivity S = c: the complete per-gradient sanitization step shared by
// Fed-CDP (applied per example) and Fed-SDP (applied per client update).
func Sanitize(grads []*tensor.Tensor, c, sigma float64, rng *tensor.RNG) {
	ClipLayers(grads, c)
	AddGaussian(grads, sigma, c, rng)
}

// compressScratch recycles the |g| working buffer across Compress calls.
// Compress runs concurrently on many client goroutines (DSSGD shares and
// the compression wrapper both prune inside ClientUpdate), so the scratch
// is pooled rather than package-global.
var compressScratch = sync.Pool{New: func() any { s := make([]float64, 0, 1024); return &s }}

// Compress zeroes the fraction `pruneRatio` of smallest-magnitude entries
// across the gradient group, the magnitude-based pruning used by the
// communication-efficient FL protocol in Figure 5. Exactly
// ⌊pruneRatio·total⌋ entries are zeroed: magnitudes strictly below the
// cutoff always prune, and ties at the cutoff prune in scan order until the
// count is reached (a full sort previously zeroed every tied entry,
// over-pruning uniform gradients). The cutoff is found with quickselect —
// O(n) instead of O(n log n) — over a pooled scratch buffer, so steady-state
// calls allocate nothing. Returns the number of entries kept.
func Compress(grads []*tensor.Tensor, pruneRatio float64) int {
	total := 0
	for _, g := range grads {
		total += g.Len()
	}
	if pruneRatio <= 0 || total == 0 {
		return total
	}
	if pruneRatio >= 1 {
		for _, g := range grads {
			g.Zero()
		}
		return 0
	}
	k := int(pruneRatio * float64(total))
	if k <= 0 {
		return total
	}

	sp := compressScratch.Get().(*[]float64)
	all := (*sp)[:0]
	for _, g := range grads {
		for _, v := range g.Data() {
			a := math.Abs(v)
			if a != a {
				// NaN (diverged training) ranks as un-prunable: quickselect's
				// partition would loop past the slice on unordered values.
				a = math.Inf(1)
			}
			all = append(all, a)
		}
	}
	// k-th smallest magnitude (0-based k-1) is the prune cutoff.
	threshold := quickselect(all, k-1)
	// Count strict-below entries to know how many ties at the cutoff must
	// also go for the pruned count to be exactly k.
	below := 0
	for _, v := range all {
		if v < threshold {
			below++
		}
	}
	*sp = all
	compressScratch.Put(sp)

	ties := k - below
	for _, g := range grads {
		d := g.Data()
		for i, v := range d {
			a := math.Abs(v)
			if a < threshold {
				d[i] = 0
			} else if a == threshold && ties > 0 {
				d[i] = 0
				ties--
			}
		}
	}
	return total - k
}

// quickselect returns the k-th smallest element (0-based) of a, partially
// reordering a in place. Median-of-three pivoting keeps the expected cost
// O(n) with no randomness, so compression stays deterministic.
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three: order a[lo] ≤ a[mid] ≤ a[hi], pivot at a[mid].
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if a[i] >= pivot {
					break
				}
			}
			for {
				j--
				if a[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return a[lo]
}

// JoinGrads returns a freshly backed slice holding ws followed by bs, for
// sanitizing weight and bias gradients as one group. Callers previously
// spelled this append(ws, bs...), which silently overwrites neighbouring
// entries of ws's backing array whenever ws is a reslice with spare
// capacity; the explicit make+copy can never alias its inputs.
func JoinGrads(ws, bs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws)+len(bs))
	copy(out, ws)
	copy(out[len(ws):], bs)
	return out
}
