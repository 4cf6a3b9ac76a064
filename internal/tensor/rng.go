package tensor

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic random source with convenience samplers used across
// the library. Its stream is math/rand's Go 1 seeded stream, bit for bit —
// the draws of rand.New(rand.NewSource(seed)) — from a source that seeds in
// O(1) (source.go), so every component can be driven from a root seed via
// Split, making distributed experiments reproducible regardless of
// goroutine scheduling, and a short keyed stream costs one allocation.
type RNG struct {
	r   rand.Rand
	src source
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// Split derives an independent child generator from this RNG's seed and a
// stream label. The same (seed, labels...) always yields the same child,
// so concurrent consumers can be given stable streams.
func Split(seed int64, labels ...int64) *RNG {
	return NewRNG(int64(mixLabels(seed, labels)))
}

// mixLabels folds a label path into a derived seed. SplitMix64-style
// mixing keeps children statistically independent for adjacent labels.
func mixLabels(seed int64, labels []int64) uint64 {
	z := uint64(seed)
	for _, l := range labels {
		z += 0x9e3779b97f4a7c15 ^ uint64(l)*0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// Reseed re-derives this generator in place to the stream Split(seed,
// labels...) would return, allocating nothing: a register this generator
// already filled is reused. Hot loops that need a fresh child stream per
// item (per-client dropout coins, per-client training RNGs) reseed one
// long-lived generator instead of allocating a Split child per item; the
// emitted stream is bit-identical to a fresh Split child.
func (g *RNG) Reseed(seed int64, labels ...int64) {
	g.r.Seed(int64(mixLabels(seed, labels)))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mean, std²).
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + float64(std*g.r.NormFloat64())
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// FillNormal fills t with i.i.d. N(mean, std²) samples.
func (g *RNG) FillNormal(t *Tensor, mean, std float64) {
	d := t.Data()
	for i := range d {
		d[i] = mean + float64(std*g.r.NormFloat64())
	}
}

// FillUniform fills t with i.i.d. Uniform[lo,hi) samples.
func (g *RNG) FillUniform(t *Tensor, lo, hi float64) {
	d := t.Data()
	for i := range d {
		d[i] = lo + float64((hi-lo)*g.r.Float64())
	}
}

// AddNormal adds i.i.d. N(0, std²) noise to t in place.
func (g *RNG) AddNormal(t *Tensor, std float64) {
	if std == 0 {
		return
	}
	d := t.Data()
	for i := range d {
		d[i] += float64(std * g.r.NormFloat64())
	}
}

// Xavier fills a (fanOut×fanIn...) weight tensor with Glorot-uniform samples.
func (g *RNG) Xavier(t *Tensor, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	g.FillUniform(t, -limit, limit)
}

// SampleWithReplacement returns n indices drawn uniformly with replacement
// from [0,pop).
func (g *RNG) SampleWithReplacement(pop, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.r.Intn(pop)
	}
	return out
}

// SampleWithoutReplacement returns n distinct indices drawn uniformly from
// [0,pop). It panics if n > pop.
func (g *RNG) SampleWithoutReplacement(pop, n int) []int {
	if n > pop {
		panic("tensor: sample size exceeds population")
	}
	p := g.r.Perm(pop)
	return p[:n]
}

// SampleDistinctFloyd returns n distinct indices drawn uniformly from
// [0,pop) in O(n) work and memory via Floyd's algorithm — the sublinear
// alternative to SampleWithoutReplacement's O(pop) permutation, for
// populations far larger than the sample. The result is sorted ascending
// (a canonical order: Floyd's insertion order is not a uniform shuffle, so
// exposing it would invite misuse). It panics if n > pop.
func (g *RNG) SampleDistinctFloyd(pop, n int) []int {
	if n > pop {
		panic("tensor: sample size exceeds population")
	}
	chosen := make(map[int]struct{}, n)
	for j := pop - n; j < pop; j++ {
		t := g.r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, n)
	for v := range chosen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
