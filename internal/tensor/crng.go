package tensor

import "math"

// This file implements the counter-based noise engine. The sequential *RNG
// (rng.go) draws samples from one mutable math/rand stream, which forces
// every consumer into a single total order — fine for reproducibility, fatal
// for parallelism: the batched execution engine runs forward/backward across
// a worker pool and then serializes on that one stream to noise the results.
//
// CounterRNG removes the ordering constraint. It is a pure function
//
//	sample = f(seed, labels..., counter)
//
// built from SplitMix64-style mixing: the key encodes the stream identity
// (e.g. round, client, iteration, example, layer) and the counter indexes
// the sample within the stream (e.g. the element offset inside a layer).
// Any goroutine can therefore generate any slice of any stream in any order
// with zero coordination and zero allocation, and the result is bit-for-bit
// identical regardless of GOMAXPROCS or scheduling. See DESIGN.md ("Noise
// engine") for the key schedule used by the sanitization pipeline.

// SplitMix64 constants: the golden-ratio increment and the two finalizer
// multipliers (Steele, Lea & Flood 2014; same mixing as Split in rng.go).
const (
	crngGolden = 0x9e3779b97f4a7c15
	crngMixA   = 0xbf58476d1ce4e5b9
	crngMixB   = 0x94d049bb133111eb
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche of all 64 bits.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= crngMixA
	z ^= z >> 27
	z *= crngMixB
	z ^= z >> 31
	return z
}

// CounterRNG is a counter-based deterministic random source. The zero value
// is a valid (seed 0) generator; values are cheap to copy and safe to share
// across goroutines because all methods are pure functions of (key, counter).
type CounterRNG struct {
	key uint64
}

// NewCounterRNG returns the counter generator keyed by (seed, labels...).
// The same arguments always yield the same stream family, mirroring Split's
// contract for the sequential RNG.
func NewCounterRNG(seed int64, labels ...int64) CounterRNG {
	return CounterRNG{key: uint64(seed)}.Derive(labels...)
}

// Derive returns an independent child generator for the given stream labels.
// Each label is folded into the key with a full SplitMix64 finalize, so
// adjacent labels (and different label paths) land on unrelated keys.
func (c CounterRNG) Derive(labels ...int64) CounterRNG {
	z := c.key
	for _, l := range labels {
		z += crngGolden ^ uint64(l)*crngMixA
		z = mix64(z)
	}
	return CounterRNG{key: z}
}

// Uint64At returns the uniform 64-bit sample at the given counter.
func (c CounterRNG) Uint64At(ctr uint64) uint64 {
	return mix64(c.key + ctr*crngGolden)
}

// Float64At returns the uniform [0,1) sample at the given counter.
func (c CounterRNG) Float64At(ctr uint64) float64 {
	return float64(c.Uint64At(ctr)>>11) * (1.0 / (1 << 53))
}

// ctrStream is the slow-path draw stream used by rejection sampling: the
// ziggurat occasionally needs more than one uniform per Gaussian sample, and
// those extra draws must not collide with neighbouring counters' draws. The
// stream is seeded by re-hashing the sample's first (rejected) draw — itself
// already a pure function of (key, counter) — so every counter gets a fresh
// SplitMix64 sequence decorrelated from every other counter's draws.
type ctrStream struct{ state uint64 }

func (s *ctrStream) next() uint64 {
	s.state += crngGolden
	return mix64(s.state)
}

func (s *ctrStream) float64() float64 {
	return float64(s.next()>>11) * (1.0 / (1 << 53))
}

// --- Ziggurat Gaussian sampler (Marsaglia & Tsang 2000, 128 layers) ---

const (
	zigLayers = 128
	zigR      = 3.442619855899      // rightmost layer edge
	zigV      = 9.91256303526217e-3 // area of each layer
	zigM      = 1 << 31             // j is treated as a signed 32-bit coordinate
)

// The ziggurat's tables: zigKn holds the acceptance thresholds on |j|,
// zigWn the x-coordinate scale per layer and zigFn the density at the
// layer edge.
var zigKn, zigWn, zigFn = zigTables()

func zigTables() (kn [zigLayers]uint32, wn, fn [zigLayers]float64) {
	dn, tn := float64(zigR), float64(zigR)
	q := zigV / math.Exp(-0.5*dn*dn)
	kn[0] = uint32(dn / q * zigM)
	kn[1] = 0
	wn[0] = q / zigM
	wn[zigLayers-1] = dn / zigM
	fn[0] = 1.0
	fn[zigLayers-1] = math.Exp(-0.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		kn[i+1] = uint32(dn / tn * zigM)
		tn = dn
		fn[i] = math.Exp(-0.5 * dn * dn)
		wn[i] = dn / zigM
	}
	return kn, wn, fn
}

// zigNormal maps one mixed 64-bit draw to a standard normal. The fast path
// (97.24% of draws) costs one compare and one multiply on top of the mix
// that produced u. The other 2.76% reject: the wedges and the tail, plus
// every draw in layer 1, where zigKn[1] = 0. Rejections continue on a
// stream re-seeded from u, so the whole sample remains a pure function of
// the originating (key, counter).
func zigNormal(u uint64) float64 {
	j := int32(uint32(u))            // signed 32-bit x-coordinate
	i := (u >> 32) & (zigLayers - 1) // layer index from independent bits
	if zigAbs(j) < zigKn[i] {
		return float64(j) * zigWn[i]
	}
	return zigNormalSlow(u, j, i)
}

// zigAbs is |j| without a branch. |MinInt32| is 1<<31, above every zigKn,
// so that coordinate always rejects.
func zigAbs(j int32) uint32 {
	m := j >> 31
	return uint32((j ^ m) - m)
}

// zigNormalSlow resolves a rejected fast-path draw: wedge acceptance for
// layers 1..127, the Marsaglia tail algorithm for layer 0, and full redraws
// from the per-sample stream until acceptance.
func zigNormalSlow(u uint64, j int32, i uint64) float64 {
	s := ctrStream{state: mix64(u)}
	for {
		if i == 0 {
			// Base layer: sample the tail |x| > zigR by exponential wedge.
			for {
				x := -math.Log(s.float64()) / zigR
				y := -math.Log(s.float64())
				if y+y >= x*x {
					if j < 0 {
						return -(zigR + x)
					}
					return zigR + x
				}
			}
		}
		// Wedge: accept x with probability proportional to the density gap.
		x := float64(j) * zigWn[i]
		if zigFn[i]+float64(s.float64()*(zigFn[i-1]-zigFn[i])) < math.Exp(-0.5*x*x) {
			return x
		}
		// Redraw a fresh (coordinate, layer) pair from the sample's stream.
		u = s.next()
		j = int32(uint32(u))
		i = (u >> 32) & (zigLayers - 1)
		if zigAbs(j) < zigKn[i] {
			return float64(j) * zigWn[i]
		}
	}
}

// NormalAt returns the N(0,1) sample at the given counter: a pure function
// of (key, ctr) consuming as many hashed draws as the ziggurat needs.
func (c CounterRNG) NormalAt(ctr uint64) float64 {
	return zigNormal(mix64(c.key + ctr*crngGolden))
}

// AddNormalBulk adds std·N(0,1) noise at counters [ctr, ctr+len(dst)) to dst
// in place. It is sharding-agnostic: noising a slice in chunks from many
// goroutines yields the same bits as one sequential sweep. It is
// ScaleAddNormalBulk at scale 1: dst·1 is dst bit for bit, and where dst is
// a NaN the sum is that NaN, quieted, either way (FuzzNoiseKernels).
func (c CounterRNG) AddNormalBulk(dst []float64, ctr uint64, std float64) {
	c.ScaleAddNormalBulk(dst, ctr, 1, std)
}

// ScaleAddNormalBulk applies the fused sanitize kernel dst[i] = dst[i]·scale
// + std·N(0,1) at counters [ctr, ctr+len(dst)): clip-scaling and noising in
// a single traversal, the inner loop of dp.SanitizeBatch.
func (c CounterRNG) ScaleAddNormalBulk(dst []float64, ctr uint64, scale, std float64) {
	if std == 0 {
		if scale != 1 {
			for i := range dst {
				dst[i] *= scale
			}
		}
		return
	}
	noiseStrip(dst, c.key+ctr*crngGolden, scale, std)
}

// noiseStrip runs ScaleAddNormalBulk's kernel from the mixer input base of
// dst[0]: the AVX2 strip where the CPU has it (crng_amd64.go), else the Go
// loop.
var noiseStrip = scaleAddNormalGo

func init() {
	if s := noiseSIMD(); s != nil {
		noiseStrip = s
	}
}

// scaleAddNormalGo is the portable kernel and the reference the AVX2 strip
// is diffed against. The ziggurat's fast path is written out in the loop;
// only a rejected draw calls out, to noiseSlow.
func scaleAddNormalGo(dst []float64, base uint64, scale, std float64) {
	for i := range dst {
		u := mix64(base)
		base += crngGolden
		j := int32(uint32(u))
		k := (u >> 32) & (zigLayers - 1)
		if zigAbs(j) >= zigKn[k] {
			dst[i] = noiseSlow(dst[i], u, scale, std)
			continue
		}
		dst[i] = float64(dst[i]*scale) + float64(std*(float64(j)*zigWn[k]))
	}
}

// noiseSlow is one element of the kernel whose draw u the fast path
// rejected.
func noiseSlow(d float64, u uint64, scale, std float64) float64 {
	return float64(d*scale) + float64(std*zigNormalSlow(u, int32(uint32(u)), (u>>32)&(zigLayers-1)))
}
