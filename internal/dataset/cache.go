package dataset

import (
	"sync"

	"fedcdp/internal/tensor"
)

// Sample is a pure function of (dataset seed, stream, index, class), but
// regenerating one costs a draw per input element — 784 Gaussians for an
// MNIST example. Training loops revisit the same (stream, index) keys round
// after round, so Dataset keeps the sample tensors it generated in a
// bounded cache keyed by the same labels that seed their streams. A hit is
// bit-identical to regeneration by construction: the cache changes timing,
// never streams, and every seeded golden in the repo pins that. All views
// of a dataset share one cache (WithPartitioner copies the pointer); the
// samples are partitioner-independent.
//
// Scalar draws — class picks, label-flip coins, shard units — are not
// cached: a short tensor.Split stream costs tens of nanoseconds, no more
// than a map lookup under a lock.

// sampleCacheFloats bounds the float64s held by cached sample tensors
// (16 MiB); past it, samples are generated but not retained.
const sampleCacheFloats = 1 << 21

type sampleKey struct {
	stream, idx int64
	class       int
}

type derivedCache struct {
	mu      sync.Mutex
	floats  int
	samples map[sampleKey]*tensor.Tensor
}

func newDerivedCache() *derivedCache {
	return &derivedCache{samples: make(map[sampleKey]*tensor.Tensor)}
}

// getSample returns a private copy of the cached example, if present.
// Cached tensors are never handed out directly: callers own (and may
// mutate) what Sample returns.
func (c *derivedCache) getSample(key sampleKey) (*tensor.Tensor, bool) {
	c.mu.Lock()
	t, ok := c.samples[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// putSample retains a copy of t under key unless the key is already held
// or the cap is reached; only a sample it keeps is cloned.
func (c *derivedCache) putSample(key sampleKey, t *tensor.Tensor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.samples[key]; ok || c.floats+t.Len() > sampleCacheFloats {
		return
	}
	c.samples[key] = t.Clone()
	c.floats += t.Len()
}
