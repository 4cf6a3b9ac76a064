package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestCounterRNGDeterministic(t *testing.T) {
	c := NewCounterRNG(42, 1, 2, 3)
	for ctr := uint64(0); ctr < 100; ctr++ {
		if c.Uint64At(ctr) != c.Uint64At(ctr) {
			t.Fatal("Uint64At must be a pure function of the counter")
		}
		if c.NormalAt(ctr) != c.NormalAt(ctr) {
			t.Fatal("NormalAt must be a pure function of the counter")
		}
	}
	if NewCounterRNG(42, 1, 2, 3).key != c.key {
		t.Fatal("same (seed, labels) must yield the same key")
	}
	if NewCounterRNG(42, 1, 2, 4).key == c.key {
		t.Fatal("different labels must yield different keys")
	}
	if c.Derive(5).key == c.Derive(6).key {
		t.Fatal("Derive with different labels must diverge")
	}
}

func TestCounterRNGDeriveOrderSensitive(t *testing.T) {
	c := NewCounterRNG(7)
	if c.Derive(1, 2).key == c.Derive(2, 1).key {
		t.Fatal("label order must matter (key is a hash chain, not a sum)")
	}
	if c.Derive(1).Derive(2).key != c.Derive(1, 2).key {
		t.Fatal("chained Derive must equal the flattened label list")
	}
}

// TestCounterNormalMoments pins the ziggurat sampler's mean, standard
// deviation, skew proxy and kurtosis proxy to N(0,1) within Monte-Carlo
// tolerance, alongside the same estimate from math/rand as a sanity anchor.
func TestCounterNormalMoments(t *testing.T) {
	const n = 200000
	c := NewCounterRNG(1, 99)
	var sum, sumSq, sumCu, sumQu float64
	for i := 0; i < n; i++ {
		v := c.NormalAt(uint64(i))
		sum += v
		sumSq += v * v
		sumCu += v * v * v
		sumQu += v * v * v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
	if skew := sumCu / n; math.Abs(skew) > 0.03 {
		t.Fatalf("third moment = %v, want ~0", skew)
	}
	if kurt := sumQu / n; math.Abs(kurt-3) > 0.1 {
		t.Fatalf("fourth moment = %v, want ~3", kurt)
	}
}

// TestCounterNormalTails checks the ziggurat's tail mass: P(|X| > 2) and
// P(|X| > 3) against the exact Gaussian values (the tail algorithm is the
// sampler's trickiest branch; a bug there shows up here first).
func TestCounterNormalTails(t *testing.T) {
	const n = 400000
	c := NewCounterRNG(2, 5)
	var over2, over3 int
	for i := 0; i < n; i++ {
		v := math.Abs(c.NormalAt(uint64(i)))
		if v > 2 {
			over2++
		}
		if v > 3 {
			over3++
		}
	}
	p2 := float64(over2) / n
	p3 := float64(over3) / n
	want2 := math.Erfc(2 / math.Sqrt2) // ≈ 0.0455
	want3 := math.Erfc(3 / math.Sqrt2) // ≈ 0.0027
	if math.Abs(p2-want2) > 0.003 {
		t.Fatalf("P(|X|>2) = %v, want ~%v", p2, want2)
	}
	if math.Abs(p3-want3) > 0.0008 {
		t.Fatalf("P(|X|>3) = %v, want ~%v", p3, want3)
	}
}

// TestCounterUniformChiSquared bins Float64At into 64 equal cells and runs a
// χ² test: 63 degrees of freedom, so the statistic should fall well under
// the p=0.001 critical value (≈103.4) for a healthy generator.
func TestCounterUniformChiSquared(t *testing.T) {
	const (
		n    = 256000
		bins = 64
	)
	counts := make([]int, bins)
	c := NewCounterRNG(3, 11)
	for i := 0; i < n; i++ {
		v := c.Float64At(uint64(i))
		if v < 0 || v >= 1 {
			t.Fatalf("Float64At out of [0,1): %v", v)
		}
		counts[int(v*bins)]++
	}
	expected := float64(n) / bins
	var chi2 float64
	for _, cnt := range counts {
		d := float64(cnt) - expected
		chi2 += d * d / expected
	}
	if chi2 > 103.4 {
		t.Fatalf("χ² = %v over %d bins, exceeds p=0.001 critical value", chi2, bins)
	}
}

// TestCounterKeyIndependence verifies disjoint (labels, counter) streams are
// uncorrelated: the empirical correlation between sibling streams, and
// between a stream and its counter-shifted self, must vanish as 1/√n.
func TestCounterKeyIndependence(t *testing.T) {
	const n = 100000
	base := NewCounterRNG(4)
	a, b := base.Derive(1), base.Derive(2)
	corr := func(x, y func(uint64) float64) float64 {
		var sx, sy, sxy, sxx, syy float64
		for i := 0; i < n; i++ {
			xv, yv := x(uint64(i)), y(uint64(i))
			sx += xv
			sy += yv
			sxy += xv * yv
			sxx += xv * xv
			syy += yv * yv
		}
		cov := sxy/n - sx/n*sy/n
		return cov / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
	}
	if r := corr(a.NormalAt, b.NormalAt); math.Abs(r) > 0.02 {
		t.Fatalf("sibling streams correlate: r = %v", r)
	}
	if r := corr(a.NormalAt, func(i uint64) float64 { return a.NormalAt(i + n) }); math.Abs(r) > 0.02 {
		t.Fatalf("shifted counter ranges correlate: r = %v", r)
	}
}

// TestBulkMatchesPointwise pins the bulk kernels to the pointwise sampler:
// noising a slice in one call, in shards, or element by element must agree
// bit-for-bit — the property the parallel sanitizer is built on.
func TestBulkMatchesPointwise(t *testing.T) {
	const n = 1000
	c := NewCounterRNG(5, 3)
	ramp := func() []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(i)
		}
		return d
	}

	whole := ramp()
	c.ScaleAddNormalBulk(whole, 0, 0.25, 3)
	sharded := ramp()
	for lo := 0; lo < n; lo += 97 { // deliberately uneven shard edges
		hi := min(lo+97, n)
		c.ScaleAddNormalBulk(sharded[lo:hi], uint64(lo), 0.25, 3)
	}
	for i := range whole {
		if whole[i] != sharded[i] {
			t.Fatalf("sharded ScaleAddNormalBulk diverges at %d: %v vs %v", i, whole[i], sharded[i])
		}
		if want := float64(i)*0.25 + 3*c.NormalAt(uint64(i)); whole[i] != want {
			t.Fatalf("ScaleAddNormalBulk diverges from pointwise at %d", i)
		}
	}

	add := ramp()
	for lo := 0; lo < n; lo += 61 {
		c.AddNormalBulk(add[lo:min(lo+61, n)], uint64(lo), 3)
	}
	for i := range add {
		if want := float64(i) + 3*c.NormalAt(uint64(i)); add[i] != want {
			t.Fatalf("AddNormalBulk diverges from pointwise at %d", i)
		}
	}
}

// TestZigguratRejectionRate pins the share of draws the fast path rejects
// to 2.76%: the wedges and the tail, plus all of layer 1 (1/128 of draws),
// whose zigKn is 0.
func TestZigguratRejectionRate(t *testing.T) {
	const n = 1_000_000
	c := NewCounterRNG(8, 1)
	rejected := 0
	for ctr := uint64(0); ctr < n; ctr++ {
		u := c.Uint64At(ctr)
		if zigAbs(int32(uint32(u))) >= zigKn[(u>>32)&(zigLayers-1)] {
			rejected++
		}
	}
	if rate := float64(rejected) / n; rate < 0.0266 || rate > 0.0286 {
		t.Fatalf("fast path rejects %.4f%% of draws, want 2.66%%–2.86%%", 100*rate)
	}
}

// zigNormalSlowExact is the slow path without the squeeze: every wedge
// test calls math.Exp. It is the oracle the squeezed slow path is held to
// bit for bit. calls, when not nil, counts the math.Exp calls and
// the ones the squeeze of w would have spared.
func zigNormalSlowExact(u uint64, j int32, i uint64, w *[zigLayers]zigWedge, calls, spared *int) float64 {
	s := ctrStream{state: mix64(u)}
	for {
		if i == 0 {
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
		x := float64(j) * zigWn[i]
		y := zigFn[i] + float64(s.float64()*(zigFn[i-1]-zigFn[i]))
		if calls != nil {
			*calls++
			c := zigFn[i] + w[i].slope*(w[i].b-math.Abs(x))
			if y < c-w[i].below || y >= c+w[i].above {
				*spared++
			}
		}
		if y < math.Exp(-0.5*x*x) {
			return x
		}
		u = s.next()
		j = int32(uint32(u))
		i = (u >> 32) & (zigLayers - 1)
		if zigAbs(j) < zigKn[i] {
			return float64(j) * zigWn[i]
		}
	}
}

// rejectedDraw builds the n-th of a sequence of draws the fast path
// rejects: layer n mod 128, a sign from the hash of n, and |j| spread over
// the layer's rejected coordinates [zigKn[i], 2³¹] (2³¹ is MinInt32).
func rejectedDraw(n uint64) (u uint64, j int32, i uint64) {
	r := mix64(n * crngGolden)
	i = n % zigLayers
	span := uint64(zigM - zigKn[i] + 1)
	abs := uint64(zigKn[i]) + (r>>8)%span
	j = int32(uint32(abs))
	if r&1 != 0 {
		j = int32(uint32(-int64(abs)))
	}
	u = r&^(1<<39-1) | i<<32 | uint64(uint32(j))
	return u, j, i
}

// checkSlowMatchesExact runs n rejected draws (rejectedDraw) through
// zigNormalSlow and the exact oracle and fails on the first differing bit.
func checkSlowMatchesExact(t *testing.T, n uint64) {
	t.Helper()
	var layers [zigLayers][2]bool
	for k := uint64(0); k < n; k++ {
		u, j, i := rejectedDraw(k)
		if zigAbs(j) < zigKn[i] {
			t.Fatalf("draw %d (layer %d, j %d) is not rejected", k, i, j)
		}
		layers[i][u>>31&1] = true
		got, want := zigNormalSlow(u, j, i), zigNormalSlowExact(u, j, i, nil, nil, nil)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %#x (layer %d, j %d): squeezed %v, exact %v", u, i, j, got, want)
		}
	}
	for i, s := range layers {
		if !s[0] || !s[1] {
			t.Fatalf("layer %d not drawn with both signs", i)
		}
	}
}

// TestZigguratSlowMatchesExact holds the squeezed slow path to the exact
// one on 2²⁰ rejected draws, every layer with both signs, and again with
// the squeeze's band widened a thousandfold, which moves decisions to
// math.Exp and so must change no bit either.
func TestZigguratSlowMatchesExact(t *testing.T) {
	checkSlowMatchesExact(t, 1<<20)
	defer func(w [zigLayers]zigWedge) { zigWedges = w }(zigWedges)
	zigWedges = zigSqueeze(1000 * zigSqueezeMargin)
	checkSlowMatchesExact(t, 1<<16)
}

// FuzzZigguratSlowMatchesOracle holds the squeezed slow path to the exact
// one on any draw the fast path rejects.
func FuzzZigguratSlowMatchesOracle(f *testing.F) {
	for n := uint64(0); n < 8; n++ {
		u, _, _ := rejectedDraw(n * 37)
		f.Add(u)
	}
	f.Add(uint64(7<<32 | 1<<31))
	f.Fuzz(func(t *testing.T, u uint64) {
		j, i := int32(uint32(u)), (u>>32)&(zigLayers-1)
		if zigAbs(j) < zigKn[i] {
			return
		}
		got, want := zigNormalSlow(u, j, i), zigNormalSlowExact(u, j, i, nil, nil, nil)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %#x (layer %d, j %d): squeezed %v, exact %v", u, i, j, got, want)
		}
	})
}

// squeezeViolations counts the coordinates of layers 1..127 where e^{−x²/2}
// as math.Exp computes it falls outside the squeeze [chord − below,
// chord + above] of w, both signs of j: each layer's two ends, ±2,000
// coordinates around each root of x·e^{−x²/2} = slope (the extremes of
// f − chord) and perLayer coordinates spread over the rest.
func squeezeViolations(w *[zigLayers]zigWedge, perLayer int) (bad int, first string) {
	check := func(i int, j int64) {
		if j < int64(zigKn[i]) || j > zigM {
			return
		}
		for _, sj := range [2]int64{j, -j} {
			if sj < math.MinInt32 {
				continue
			}
			x := float64(sj) * zigWn[i]
			c := zigFn[i] + w[i].slope*(w[i].b-math.Abs(x))
			if f := math.Exp(-0.5 * x * x); f < c-w[i].below || f > c+w[i].above {
				if bad == 0 {
					first = fmt.Sprintf("layer %d, j %d: e^(-x²/2) = %v outside [%v, %v]", i, sj, f, c-w[i].below, c+w[i].above)
				}
				bad++
			}
		}
	}
	for i := 1; i < zigLayers; i++ {
		lo, hi := int64(zigKn[i]), int64(zigM)
		for _, j := range [...]int64{lo, lo + 1, hi - 1, hi} {
			check(i, j)
		}
		for _, r := range [...]float64{zigCritical(w[i].slope, 0, 1), zigCritical(w[i].slope, 1, 40)} {
			jc := int64(math.Round(r / zigWn[i]))
			for d := int64(-2000); d <= 2000; d++ {
				check(i, jc+d)
			}
		}
		for k := 0; k < perLayer; k++ {
			check(i, lo+(hi-lo)*int64(k)/int64(perLayer))
		}
	}
	return bad, first
}

// TestZigguratSqueezeBrackets pins lo ≤ math.Exp(−x²/2) ≤ hi, the squeeze
// the wedge test trusts without calling math.Exp, on every layer at its
// ends, around its critical points and at 10⁵ coordinates more. As a check
// on the check, the band widened a thousandfold still brackets, and the
// band without its margin, whose edges touch the density at the critical
// points, must be caught.
func TestZigguratSqueezeBrackets(t *testing.T) {
	if bad, first := squeezeViolations(&zigWedges, 100_000); bad > 0 {
		t.Fatalf("%d coordinates escape the squeeze; first: %s", bad, first)
	}
	wide := zigSqueeze(1000 * zigSqueezeMargin)
	if bad, first := squeezeViolations(&wide, 1000); bad > 0 {
		t.Fatalf("widened squeeze: %d coordinates escape; first: %s", bad, first)
	}
	bare := zigSqueeze(0)
	if bad, _ := squeezeViolations(&bare, 1000); bad == 0 {
		t.Fatal("the squeeze without its margin escaped no check: the check cannot see a band that is too tight")
	} else {
		t.Logf("without its margin the squeeze fails at %d coordinates", bad)
	}
}

// TestZigguratExpCallRate recounts, on 10⁶ counters, the draws whose wedge
// tests reach math.Exp: at most 0.3% with the squeeze, against about 2.7%
// when every wedge test calls it.
func TestZigguratExpCallRate(t *testing.T) {
	const n = 1_000_000
	c := NewCounterRNG(8, 2)
	exact, squeezed := 0, 0
	for ctr := uint64(0); ctr < n; ctr++ {
		u := c.Uint64At(ctr)
		j, i := int32(uint32(u)), (u>>32)&(zigLayers-1)
		if zigAbs(j) < zigKn[i] {
			continue
		}
		calls, spared := 0, 0
		zigNormalSlowExact(u, j, i, &zigWedges, &calls, &spared)
		if calls > 0 {
			exact++
		}
		if calls > spared {
			squeezed++
		}
	}
	t.Logf("draws reaching math.Exp: %.3f%% exact, %.3f%% squeezed", 100*float64(exact)/n, 100*float64(squeezed)/n)
	if float64(squeezed)/n > 0.003 {
		t.Fatalf("%.3f%% of draws reach math.Exp, want at most 0.3%%", 100*float64(squeezed)/n)
	}
}

// TestScaleAddNormalBulkEdgeCases covers the std=0 and scale=1 fast paths.
func TestScaleAddNormalBulkEdgeCases(t *testing.T) {
	c := NewCounterRNG(6)
	d := []float64{1, 2, 3}
	c.ScaleAddNormalBulk(d, 0, 2, 0) // pure scaling
	if d[0] != 2 || d[1] != 4 || d[2] != 6 {
		t.Fatalf("std=0 must scale only, got %v", d)
	}
	e := []float64{1, 2, 3}
	f := []float64{1, 2, 3}
	c.ScaleAddNormalBulk(e, 7, 1, 0.5)
	c.AddNormalBulk(f, 7, 0.5)
	for i := range e {
		if e[i] != f[i] {
			t.Fatal("scale=1 must match AddNormalBulk exactly")
		}
	}
}

// unmix64 inverts mix64: each xorshift by s undone by repeated shifts,
// each multiply by the multiplier's inverse mod 2⁶⁴.
func unmix64(z uint64) uint64 {
	unshift := func(z uint64, s uint) uint64 {
		for r := z >> s; r != 0; r >>= s {
			z ^= r
		}
		return z
	}
	z = unshift(z, 31)
	z *= inverse64(crngMixB)
	z = unshift(z, 27)
	z *= inverse64(crngMixA)
	return unshift(z, 30)
}

// inverse64 is the inverse of odd a mod 2⁶⁴ (Newton's iteration doubles
// the correct low bits each step).
func inverse64(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// counterFor returns the counter at which key draws u.
func counterFor(key, u uint64) uint64 {
	return (unmix64(u) - key) * inverse64(crngGolden)
}

// noiseEngines are the kernels FuzzNoiseKernels diffs: the Go loop and the
// SIMD strips the CPU has (AVX-512, AVX2). It logs their names, so a run
// on a host without one shows which engines it held to the definition.
func noiseEngines(tb testing.TB) []noiseEngine {
	e := append([]noiseEngine{{"go", 0}}, noiseSIMD()...)
	names := make([]string, len(e))
	for i, n := range e {
		names[i] = n.name
	}
	tb.Logf("noise engines: %s", strings.Join(names, ", "))
	return e
}

// noiseValues are the scale and std arguments FuzzNoiseKernels picks from
// when its selector byte is below their count: signed zeros, one, negatives,
// subnormals, infinities and overflowing magnitudes.
var noiseValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3, 1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.Inf(1), math.Inf(-1), 1e308, -math.MaxFloat64,
}

// FuzzNoiseKernels runs AddNormalBulk and ScaleAddNormalBulk on every
// engine over a hostile destination (fillHostile: signed zeros,
// infinities, quiet and signalling NaNs of both signs, subnormals,
// ±MaxFloat64) and holds each element to the pointwise definition
// dst·scale + std·NormalAt(ctr+i) — dst + std·NormalAt(ctr+i) for
// AddNormalBulk — bit for bit. So the AVX2 strip returns the Go loop's
// bits, and AddNormalBulk at dst·1 returns the bits of the sum without the
// product, signalling NaNs included. The one latitude is the payload of a
// NaN from two NaN operands, which Go leaves to the compiler. Counters
// reach past 2⁶⁴ and lengths cover every tail of a four-lane strip. The
// corpus holds the counters whose j is MinInt32 and 0 (|j| overflows; z
// is 0, so an infinite std makes std·z NaN).
func FuzzNoiseKernels(f *testing.F) {
	const key = 0x1234_5678_9abc_def0
	minInt32 := counterFor(key, 7<<32|1<<31)
	zero := counterFor(key, 9<<32)
	f.Add(uint64(key), minInt32-5, uint8(11), uint64(1), uint8(64), uint8(4), uint8(5))
	f.Add(uint64(key), zero-2, uint8(7), uint64(2), uint8(255), uint8(3), uint8(10))
	f.Add(uint64(key), zero-1, uint8(4), uint64(3), uint8(0), uint8(2), uint8(11))
	f.Add(uint64(1), uint64(math.MaxUint64-20), uint8(67), uint64(4), uint8(128), uint8(1), uint8(13))
	f.Add(uint64(2), uint64(0), uint8(0), uint64(5), uint8(40), uint8(0), uint8(2))
	f.Add(uint64(3), uint64(1<<40), uint8(33), uint64(6), uint8(200), uint8(7), uint8(8))
	f.Add(uint64(4), uint64(7), uint8(40), uint64(93), uint8(255), uint8(2), uint8(0))
	f.Add(uint64(5), uint64(8), uint8(40), uint64(94), uint8(255), uint8(4), uint8(1))
	engines := noiseEngines(f)
	f.Fuzz(func(t *testing.T, key, ctr uint64, nb uint8, seed uint64, pct, scaleSel, stdSel uint8) {
		n := int(nb) % 68
		pick := func(sel uint8, raw uint64) float64 {
			if int(sel) < len(noiseValues) {
				return noiseValues[sel]
			}
			return math.Float64frombits(raw)
		}
		scale, std := pick(scaleSel, seed*crngMixA), pick(stdSel, seed*crngMixB)
		c := CounterRNG{key: key}
		dst := make([]float64, n)
		fillHostile(dst, seed, pct)
		defer func(lanes int) { noiseLanes = lanes }(noiseLanes)
		for _, e := range engines {
			noiseLanes = e.lanes
			for _, add := range []bool{false, true} {
				got := append([]float64(nil), dst...)
				if add {
					c.AddNormalBulk(got, ctr, std)
				} else {
					c.ScaleAddNormalBulk(got, ctr, scale, std)
				}
				for i, d := range dst {
					z := c.NormalAt(ctr + uint64(i))
					scaled, s := d*scale, std*z
					want := scaled + s
					if add {
						scaled, want = d, d+s
					}
					if std == 0 { // no draws: dst is only scaled, and left alone at scale 1
						want = scaled
						if scale == 1 {
							want = d
						}
					}
					if math.Float64bits(got[i]) == math.Float64bits(want) {
						continue
					}
					twoNaNs := add && d != d && s != s ||
						!add && (d != d && scale != scale || scaled != scaled && s != s)
					if got[i] != got[i] && want != want && twoNaNs {
						continue
					}
					t.Fatalf("%s add=%v n=%d ctr=%#x elem %d: dst %#016x scale %v std %v: got %#016x, want %#016x",
						e.name, add, n, ctr, i, math.Float64bits(d), scale, std,
						math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// BenchmarkNoiseEngineKernel prices each engine of the noise kernel over
// 4,096 elements per call.
func BenchmarkNoiseEngineKernel(b *testing.B) {
	const n = 4096
	dst := make([]float64, n)
	for _, e := range noiseEngines(b) {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				noiseStrip(dst, uint64(i)*n*crngGolden, 0.5, 1, e.lanes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// BenchmarkZigguratSlow prices one rejected draw through the squeezed slow
// path and through the exact oracle, over the first 4,096 draws of a
// counter stream that the fast path rejects.
func BenchmarkZigguratSlow(b *testing.B) {
	c := NewCounterRNG(3)
	var draws []uint64
	for ctr := uint64(0); len(draws) < 4096; ctr++ {
		if u := c.Uint64At(ctr); zigAbs(int32(uint32(u))) >= zigKn[(u>>32)&(zigLayers-1)] {
			draws = append(draws, u)
		}
	}
	for _, e := range []struct {
		name string
		slow func(uint64, int32, uint64) float64
	}{
		{"squeezed", zigNormalSlow},
		{"exact", func(u uint64, j int32, i uint64) float64 { return zigNormalSlowExact(u, j, i, nil, nil, nil) }},
	} {
		b.Run(e.name, func(b *testing.B) {
			var sum float64
			for n := 0; n < b.N; n++ {
				u := draws[n%len(draws)]
				sum += e.slow(u, int32(uint32(u)), (u>>32)&(zigLayers-1))
			}
			_ = sum
		})
	}
}

func BenchmarkCounterNormal(b *testing.B) {
	c := NewCounterRNG(1)
	dst := make([]float64, 4096)
	b.Run("pointwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.NormalAt(uint64(i))
		}
	})
	b.Run("mathrand4096", func(b *testing.B) {
		rng := NewRNG(1)
		t := FromSlice(dst, len(dst))
		for i := 0; i < b.N; i++ {
			rng.AddNormal(t, 1)
		}
	})
}
