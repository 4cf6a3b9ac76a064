package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers math/rand's seed normalization edges (0, the modulus
// and its multiples, both signs, the int64 extremes, the seed 0 maps to)
// and then spreads pseudo-random seeds over the whole int64 range.
func sourceSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, lcgM, -lcgM, lcgM - 1, lcgM + 1, 1 - lcgM,
		2 * lcgM, -2 * lcgM, 5 * lcgM, lcgM * (math.MaxInt64 / lcgM),
		math.MinInt64, math.MaxInt64, lcgZero, -lcgZero, lcgZero + lcgM,
	}
	for i := int64(0); len(seeds) < n; i++ {
		seeds = append(seeds, int64(mixLabels(i, []int64{i})))
	}
	return seeds
}

// drawBoth runs the same call sequence on g and on ref and fails at the
// first difference. Step k picks the call by k mod 5 — Float64, Int63,
// Intn with a non-power-of-two bound (its rejection loop consumes a
// variable number of draws), a short Perm and NormFloat64 — so the
// register fill lands inside every kind of call across seeds.
func drawBoth(t testing.TB, what string, g *RNG, ref *rand.Rand, steps int) {
	t.Helper()
	const n = 3 << 29 // rejects about a quarter of Int31 draws
	for k := 0; k < steps; k++ {
		var a, b float64
		switch k % 5 {
		case 0:
			a, b = g.Float64(), ref.Float64()
		case 1:
			a, b = float64(g.Int63()), float64(ref.Int63())
		case 2:
			a, b = float64(g.Intn(n)), float64(ref.Intn(n))
		case 3:
			p, q := g.Perm(7), ref.Perm(7)
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("%s: step %d Perm %v, math/rand %v", what, k, p, q)
				}
			}
		case 4:
			a, b = g.Normal(0, 1), ref.NormFloat64()
		}
		if a != b {
			t.Fatalf("%s: step %d (call %d) = %v, math/rand %v", what, k, k%5, a, b)
		}
	}
}

// rawBoth compares n raw Int63 draws, so the stream position afterwards
// is exactly n.
func rawBoth(t testing.TB, what string, g *RNG, ref *rand.Rand, n int) {
	t.Helper()
	for d := 1; d <= n; d++ {
		if a, b := g.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s: draw %d = %d, math/rand %d", what, d, a, b)
		}
	}
}

// TestSourceMatchesMathRand is the contract of source.go: RNG emits
// rand.New(rand.NewSource(seed))'s stream bit for bit, across the seeded
// prefix, the register fill after draw rngTap and the steady state, and
// after Reseed from both a short and a filled stream.
func TestSourceMatchesMathRand(t *testing.T) {
	lengths := []int{0, 1, 272, 273, 274, 606, 607, 608, 1300}
	for _, seed := range sourceSeeds(300) {
		for _, n := range lengths {
			g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
			rawBoth(t, "NewRNG", g, ref, n)
			drawBoth(t, "NewRNG", g, ref, 40)
		}
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		drawBoth(t, "NewRNG interleaved", g, ref, 1300)
	}
	// Reseed mid-stream: out of an unfilled stream, out of a filled one
	// (its register block is reused), then into every length again.
	g := NewRNG(3)
	for i, seed := range sourceSeeds(60) {
		before := lengths[i%len(lengths)]
		for d := 0; d < before; d++ {
			g.Int63()
		}
		g.Reseed(seed) // no labels: the seed itself
		ref := rand.New(rand.NewSource(seed))
		rawBoth(t, "Reseed", g, ref, lengths[(i+3)%len(lengths)])
		drawBoth(t, "Reseed", g, ref, 40)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds(24) {
		f.Add(seed, uint16(rngTap))
	}
	f.Add(int64(0), uint16(rngLen+1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		rawBoth(t, "NewRNG", g, ref, int(n))
		drawBoth(t, "NewRNG", g, ref, 20)
		g.Reseed(^seed)
		ref = rand.New(rand.NewSource(^seed))
		rawBoth(t, "Reseed", g, ref, int(n)%(2*rngLen))
		drawBoth(t, "Reseed", g, ref, 20)
	})
}

// TestRNGAllocs pins the cost the O(1) seed buys: a short Split stream is
// one allocation, and reseeding a generator — whether or not it has
// filled its register — allocates nothing.
func TestRNGAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	i := int64(0)
	if a := testing.AllocsPerRun(100, func() { Split(7, i).Float64(); i++ }); a != 1 {
		t.Fatalf("Split(…).Float64() allocates %.1f objects, want 1", a)
	}
	g := NewRNG(1)
	for d := 0; d < 2*rngLen; d++ { // fill the register once
		g.Int63()
	}
	if a := testing.AllocsPerRun(100, func() { g.Reseed(7, i); g.Float64(); i++ }); a != 0 {
		t.Fatalf("Reseed + Float64 allocates %.1f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		g.Reseed(7, i)
		for d := 0; d < rngLen; d++ {
			g.Int63()
		}
		i++
	}); a != 0 {
		t.Fatalf("Reseed + a filled stream allocates %.1f objects, want 0", a)
	}
}

// sinkF keeps benchmarked draws from being optimized away.
var sinkF float64

// BenchmarkSplitShort is the keyed-decision pattern: derive a child
// stream, take one draw.
func BenchmarkSplitShort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = Split(42, int64(i)).Float64()
	}
}

// BenchmarkRNGLongStream measures Float64 in the steady state, 10⁴ draws
// past the register fill, beside math/rand's own source behind the same
// wrapper (mathRNG); it should stay within 10% of it.
func BenchmarkRNGLongStream(b *testing.B) {
	b.Run("tensor", func(b *testing.B) {
		g := NewRNG(42)
		for d := 0; d < 10000; d++ {
			g.Float64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF = g.Float64()
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		g := &mathRNG{rand.New(rand.NewSource(42))}
		for d := 0; d < 10000; d++ {
			g.Float64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF = g.Float64()
		}
	})
}

// mathRNG is RNG's Float64 over math/rand's own source: the comparison
// arm of BenchmarkRNGLongStream.
type mathRNG struct{ r *rand.Rand }

func (g *mathRNG) Float64() float64 { return g.r.Float64() }
