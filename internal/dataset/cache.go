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
// The cache owns its slots: a miss generates into a new slot the cache
// keeps (past the cap, into a pooled scratch), and readers copy out —
// ClientData.BatchInto into its batch row, Sample and Get into a private
// tensor — so a hit is one copy. Cold samples reseed a pooled generator,
// so no stream or register is allocated per sample.
//
// Scalar draws — class picks, label-flip coins — are not cached: a short
// tensor.Split stream costs tens of nanoseconds, no more than a map lookup
// under a lock, and a coin alone (tensor.SplitFloat64) builds no stream.

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

// sampleGen generates cold samples: rng is reseeded per sample, scratch
// holds one the full cache will not keep. A pool inside a cache would keep
// a dropped dataset's cache reachable from the runtime for two collections.
type sampleGen struct {
	rng     *tensor.RNG
	scratch *tensor.Tensor
}

var sampleGens = sync.Pool{New: func() any { return &sampleGen{rng: tensor.NewRNG(0)} }}

func newDerivedCache() *derivedCache {
	return &derivedCache{samples: make(map[sampleKey]*tensor.Tensor)}
}

// copyOut copies the sample cached under key into dst, reporting whether
// the cache held one and, if not, whether one of dst's size would still
// fit. Slots are never written once kept, so the copy needs no lock.
func (c *derivedCache) copyOut(key sampleKey, dst []float64) (hit, room bool) {
	c.mu.Lock()
	t, hit := c.samples[key]
	room = c.floats+len(dst) <= sampleCacheFloats
	c.mu.Unlock()
	if hit {
		copy(dst, t.Data())
	}
	return hit, room
}

// keep makes t the slot for key unless the key is already held or the cap
// is reached; the cache owns t from here on.
func (c *derivedCache) keep(key sampleKey, t *tensor.Tensor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.samples[key]; ok || c.floats+t.Len() > sampleCacheFloats {
		return
	}
	c.samples[key] = t
	c.floats += t.Len()
}
