// Counter-based sanitization engine: the parallel, fused clip+noise pipeline
// federated training runs on. Where Sanitize draws from one sequential
// math/rand stream, the functions in this file key every noise value to
// (stream labels, element offset) via tensor.CounterRNG, so per-example
// sanitization of a whole mini-batch — and the noising of a single large
// update — fan out over goroutines with bit-identical results at any
// GOMAXPROCS. See DESIGN.md ("Noise engine").
package dp

import (
	"math"

	"fedcdp/internal/tensor"
)

// normChunk is the fixed reduction granularity for norm computation: squared
// sums are accumulated per 2048-element chunk and the chunk partials reduced
// in index order. Chunk edges depend only on tensor sizes — never on the
// worker count — so the floating-point result is the same whether the chunks
// were summed by one goroutine or eight.
const normChunk = 2048

// chunkedSqSum returns the sum of squares of d, reduced over fixed-size
// chunks in index order (deterministic under any sharding of the chunks).
func chunkedSqSum(d []float64) float64 {
	var total float64
	for lo := 0; lo < len(d); lo += normChunk {
		hi := lo + normChunk
		if hi > len(d) {
			hi = len(d)
		}
		var s float64
		for _, v := range d[lo:hi] {
			s += float64(v * v)
		}
		total += s
	}
	return total
}

// clipScale returns the DP-SGD clip factor min(1, c/norm) for a squared norm,
// together with the pre-clip norm. A non-positive c disables clipping.
func clipScale(sqSum, c float64) (scale, norm float64) {
	norm = math.Sqrt(sqSum)
	if c <= 0 || norm <= c {
		return 1, norm
	}
	return c / norm, norm
}

// layerKey derives the per-layer noise stream from a gradient-group key; the
// counter then runs over element offsets within the layer, making the noise
// value for (group key, layer, offset) a pure function of the key schedule.
func layerKey(noise tensor.CounterRNG, layer int) tensor.CounterRNG {
	return noise.Derive(int64(layer))
}

// SanitizeCounter clips every tensor independently to L2 norm c and adds
// N(0, (sigma·c)²) noise from the counter engine in one fused traversal per
// layer — the counter-engine equivalent of Sanitize. Gradient group keys
// (noise) must be unique per sanitized group; layer streams are derived
// internally. Returns the pre-clip norms of each layer.
func SanitizeCounter(grads []*tensor.Tensor, c, sigma float64, noise tensor.CounterRNG) []float64 {
	norms := make([]float64, len(grads))
	sanitizeLayers(grads, c, sigma, noise, norms)
	return norms
}

// SanitizeCounterNorm is SanitizeCounter returning the group's pre-clip L2
// norm instead of the per-layer ones: the per-layer squared sums the clip
// computes, added in layer order — groupNormChunked of the unsanitized
// group, bit for bit, without a second pass over it.
func SanitizeCounterNorm(grads []*tensor.Tensor, c, sigma float64, noise tensor.CounterRNG) float64 {
	return math.Sqrt(sanitizeLayers(grads, c, sigma, noise, nil))
}

// sanitizeLayers is the one pass of SanitizeCounter and
// SanitizeCounterNorm: per layer, one chunkedSqSum, the clip scale from it
// and the fused clip+noise. It stores each layer's pre-clip norm in norms
// when that is non-nil, and returns the sum of the squared sums in layer
// order. A layer's squared sum is taken before that layer is noised and
// the others are not touched, so the sum is the unsanitized group's.
func sanitizeLayers(grads []*tensor.Tensor, c, sigma float64, noise tensor.CounterRNG, norms []float64) float64 {
	std := sigma * c
	var sqSum float64
	for li, g := range grads {
		d := g.Data()
		sq := chunkedSqSum(d)
		sqSum += sq
		scale, norm := clipScale(sq, c)
		if norms != nil {
			norms[li] = norm
		}
		layerKey(noise, li).ScaleAddNormalBulk(d, 0, scale, std)
	}
	return sqSum
}

// SanitizeCounterFlat clips the whole gradient group to L2 norm c as one
// concatenated vector (the Abadi et al. convention) and adds counter-engine
// noise of std sigma·c. Returns the pre-clip group norm.
func SanitizeCounterFlat(grads []*tensor.Tensor, c, sigma float64, noise tensor.CounterRNG) float64 {
	var sqSum float64
	for _, g := range grads {
		sqSum += chunkedSqSum(g.Data())
	}
	scale, norm := clipScale(sqSum, c)
	std := sigma * c
	for li, g := range grads {
		layerKey(noise, li).ScaleAddNormalBulk(g.Data(), 0, scale, std)
	}
	return norm
}

// shard is one unit of parallel work inside a gradient group: a contiguous
// element range [lo,hi) of layer li. Shard edges are a pure function of the
// layer sizes, so any assignment of shards to goroutines produces the same
// bits.
type shard struct {
	li     int
	lo, hi int
}

// shardGroup cuts a gradient group into normChunk-aligned shards.
func shardGroup(grads []*tensor.Tensor) []shard {
	var shards []shard
	for li, g := range grads {
		n := g.Len()
		for lo := 0; lo < n; lo += normChunk {
			hi := lo + normChunk
			if hi > n {
				hi = n
			}
			shards = append(shards, shard{li: li, lo: lo, hi: hi})
		}
	}
	return shards
}

// SanitizeCounterPar is SanitizeCounter for large gradient groups (e.g. a
// whole client update under Fed-SDP): the norm pass and the fused clip+noise
// pass each shard the group's layers across par goroutines (par ≤ 0 means
// GOMAXPROCS). Output is bit-identical to SanitizeCounter for every par.
func SanitizeCounterPar(grads []*tensor.Tensor, c, sigma float64, noise tensor.CounterRNG, par int) []float64 {
	shards := shardGroup(grads)
	if len(shards) <= 1 || par == 1 {
		return SanitizeCounter(grads, c, sigma, noise)
	}
	if par <= 0 || par > len(shards) {
		par = len(shards)
	}

	// Phase 1: per-shard squared sums, reduced per layer in shard order.
	partials := make([]float64, len(shards))
	tensor.Fork(len(shards), tensor.TakeHelpers(par-1), func(_, s int) {
		sh := shards[s]
		var sum float64
		for _, v := range grads[sh.li].Data()[sh.lo:sh.hi] {
			sum += float64(v * v)
		}
		partials[s] = sum
	})
	norms := make([]float64, len(grads))
	scales := make([]float64, len(grads))
	sqSums := make([]float64, len(grads))
	for s, sh := range shards {
		sqSums[sh.li] += partials[s]
	}
	for li := range grads {
		scales[li], norms[li] = clipScale(sqSums[li], c)
	}

	// Phase 2: fused clip+noise per shard; the layer stream's counter is the
	// element offset, so shard boundaries don't shift the noise.
	std := sigma * c
	tensor.Fork(len(shards), tensor.TakeHelpers(par-1), func(_, s int) {
		sh := shards[s]
		d := grads[sh.li].Data()[sh.lo:sh.hi]
		layerKey(noise, sh.li).ScaleAddNormalBulk(d, uint64(sh.lo), scales[sh.li], std)
	})
	return norms
}

// BatchSanitizeJob describes one fused sanitize pass over a mini-batch of
// per-example gradients: recover each example's gradients into its own
// buffer, clip+noise them in place, and accumulate the batch average — with
// the recover+sanitize stage fanned out over goroutines.
type BatchSanitizeJob struct {
	// N is the number of examples in the batch.
	N int
	// Recover materializes example i's parameter gradients into dst. It is
	// called concurrently for distinct i with distinct dst and must be safe
	// under that contract (nn.Model.ExampleGrads is: recovery only reads the
	// batch caches).
	Recover func(i int, dst []*tensor.Tensor)
	// Sanitize applies the fused clip+noise to example i's gradients in
	// place. It must be pure per example — counter-engine sanitizers are;
	// sequential math/rand sanitizers are NOT and must use the serial path.
	Sanitize func(i int, g []*tensor.Tensor)
	// Bufs holds N pre-allocated gradient groups (one per example), each
	// aligned with the model's Grads. Contents are overwritten.
	Bufs [][]*tensor.Tensor
	// Accum, when non-nil, receives Weight × g_i for every example, folded
	// in example order after the parallel stage (deterministic FP sums).
	Accum []*tensor.Tensor
	// Weight is the accumulation coefficient (e.g. 1/B for batch averaging).
	Weight float64
	// PreNorms, when non-nil, is filled with each example's pre-sanitize
	// group L2 norm (len ≥ N) — the paper's Figure 3 statistic.
	PreNorms []float64
	// Parallelism caps the worker count (≤0 means GOMAXPROCS).
	Parallelism int
}

// example recovers and sanitizes example i into its own buffer.
func (job BatchSanitizeJob) example(i int) {
	g := job.Bufs[i]
	job.Recover(i, g)
	if job.PreNorms != nil {
		job.PreNorms[i] = groupNormChunked(g)
	}
	if job.Sanitize != nil {
		job.Sanitize(i, g)
	}
}

// SanitizeBatch runs the job: examples are recovered and sanitized in
// parallel (each into its own buffer, so scheduling cannot affect the
// result), then folded into Accum in example order. The output — buffers,
// accumulator and norms — is bit-identical at any worker count.
func SanitizeBatch(job BatchSanitizeJob) {
	if job.N == 0 {
		return
	}
	par := job.Parallelism
	if par <= 0 || par > job.N {
		par = job.N
	}
	if extra := tensor.TakeHelpers(par - 1); extra > 0 {
		tensor.Fork(job.N, extra, func(_, i int) { job.example(i) }) // the serial path builds no closure
	} else {
		for i := 0; i < job.N; i++ {
			job.example(i)
		}
	}
	if job.Accum != nil {
		for i := 0; i < job.N; i++ {
			tensor.AddAllScaled(job.Accum, job.Weight, job.Bufs[i])
		}
	}
}

// groupNormChunked is tensor.GroupL2Norm with the deterministic chunked
// reduction, so norms recorded by the parallel pipeline match at any
// GOMAXPROCS (and match the serial counter path, which uses the same
// chunking).
func groupNormChunked(ts []*tensor.Tensor) float64 {
	var s float64
	for _, t := range ts {
		s += chunkedSqSum(t.Data())
	}
	return math.Sqrt(s)
}
