package dp

import (
	"math"
	"runtime"
	"testing"

	"fedcdp/internal/tensor"
)

// gradGroup builds a deterministic multi-layer gradient group whose sizes
// straddle the norm-chunk boundary (so sharding paths are exercised).
func gradGroup(seed int64, scale float64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	grads := []*tensor.Tensor{
		tensor.New(8, 25), tensor.New(8), tensor.New(5000), tensor.New(10, 300),
	}
	for _, g := range grads {
		rng.FillNormal(g, 0, scale)
	}
	return grads
}

func cloneGroup(ts []*tensor.Tensor) []*tensor.Tensor { return tensor.CloneAll(ts) }

func groupsEqualBits(t *testing.T, a, b []*tensor.Tensor, label string) {
	t.Helper()
	for i := range a {
		ad, bd := a[i].Data(), b[i].Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("%s: tensor %d element %d differs: %v vs %v", label, i, j, ad[j], bd[j])
			}
		}
	}
}

func TestSanitizeCounterClipsAndPerturbs(t *testing.T) {
	noise := tensor.NewCounterRNG(1, 2)
	// sigma = 0: pure fused clipping, every layer lands inside the ball.
	g := gradGroup(3, 10)
	norms := SanitizeCounter(g, 4, 0, noise)
	for i, gt := range g {
		if gt.L2Norm() > 4*(1+1e-9) {
			t.Fatalf("layer %d norm %v exceeds bound", i, gt.L2Norm())
		}
		if norms[i] <= 0 {
			t.Fatalf("pre-clip norm %d not recorded", i)
		}
	}
	// sigma > 0 must perturb.
	h := gradGroup(3, 0.1)
	ref := cloneGroup(h)
	SanitizeCounter(h, 4, 1, noise)
	same := true
	for i := range h {
		if !h[i].Equal(ref[i], 1e-12) {
			same = false
		}
	}
	if same {
		t.Fatal("sigma>0 must perturb the gradients")
	}
}

// TestSanitizeCounterStatistics pins the counter-engine Gaussian mechanism's
// moments, mirroring TestAddGaussianStatistics for the reference engine.
func TestSanitizeCounterStatistics(t *testing.T) {
	g := tensor.New(100000)
	SanitizeCounter([]*tensor.Tensor{g}, 3, 2, tensor.NewCounterRNG(9)) // std = 6
	var sum, sumSq float64
	for _, v := range g.Data() {
		sum += v
		sumSq += v * v
	}
	n := float64(g.Len())
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Fatalf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-6) > 0.1 {
		t.Fatalf("noise std = %v, want ~6", std)
	}
}

// TestSanitizeCounterParMatchesSerial pins the sharded sanitizer to the
// serial one bit-for-bit at several worker counts — the property that makes
// the engine's output independent of GOMAXPROCS.
func TestSanitizeCounterParMatchesSerial(t *testing.T) {
	noise := tensor.NewCounterRNG(7, 1)
	want := gradGroup(11, 2)
	wantNorms := SanitizeCounter(want, 4, 0.5, noise)
	for _, par := range []int{1, 2, 3, 8} {
		got := gradGroup(11, 2)
		gotNorms := SanitizeCounterPar(got, 4, 0.5, noise, par)
		groupsEqualBits(t, want, got, "par sanitize")
		for i := range wantNorms {
			if wantNorms[i] != gotNorms[i] {
				t.Fatalf("par=%d: norm %d differs: %v vs %v", par, i, wantNorms[i], gotNorms[i])
			}
		}
	}
}

func TestSanitizeCounterFlatBoundsGroup(t *testing.T) {
	noise := tensor.NewCounterRNG(5)
	g := gradGroup(13, 10)
	norm := SanitizeCounterFlat(g, 4, 0, noise)
	if norm <= 4 {
		t.Fatalf("pre-clip group norm %v should exceed the bound in this setup", norm)
	}
	if got := tensor.GroupL2Norm(g); got > 4*(1+1e-9) {
		t.Fatalf("flat-clipped group norm %v exceeds bound", got)
	}
}

// TestSanitizeBatchDeterministicAcrossParallelism runs the fused batch
// pipeline at worker counts 1 and 8 over the same per-example gradients and
// requires byte-identical buffers, accumulator and norms, and every helper
// back in the CPU budget — under -race this also proves the fan-out is
// data-race free.
func TestSanitizeBatchDeterministicAcrossParallelism(t *testing.T) {
	const n = 6
	noise := tensor.NewCounterRNG(21, 4)
	source := make([][]*tensor.Tensor, n)
	for i := range source {
		source[i] = gradGroup(int64(100+i), 3)
	}
	shapes := source[0]

	run := func(par int) ([][]*tensor.Tensor, []*tensor.Tensor, []float64) {
		bufs := make([][]*tensor.Tensor, n)
		for i := range bufs {
			bufs[i] = tensor.ZerosLike(shapes)
		}
		accum := tensor.ZerosLike(shapes)
		norms := make([]float64, n)
		SanitizeBatch(BatchSanitizeJob{
			N: n,
			Recover: func(i int, dst []*tensor.Tensor) {
				for li, t := range dst {
					t.CopyFrom(source[i][li])
				}
			},
			Sanitize: func(i int, g []*tensor.Tensor) {
				SanitizeCounter(g, 4, 0.5, noise.Derive(int64(i)))
			},
			Bufs:        bufs,
			Accum:       accum,
			Weight:      1.0 / n,
			PreNorms:    norms,
			Parallelism: par,
		})
		return bufs, accum, norms
	}

	bufs1, accum1, norms1 := run(1)
	bufs8, accum8, norms8 := run(8)
	if b := tensor.Busy(); b != 0 {
		t.Fatalf("SanitizeBatch left %d helpers in the CPU budget", b)
	}
	for i := range bufs1 {
		groupsEqualBits(t, bufs1[i], bufs8[i], "example buffer")
	}
	groupsEqualBits(t, accum1, accum8, "accumulator")
	for i := range norms1 {
		if norms1[i] != norms8[i] {
			t.Fatalf("norm %d differs across parallelism: %v vs %v", i, norms1[i], norms8[i])
		}
	}
	// The accumulator must be the example-ordered weighted sum.
	want := tensor.ZerosLike(shapes)
	for i := 0; i < n; i++ {
		tensor.AddAllScaled(want, 1.0/n, bufs1[i])
	}
	groupsEqualBits(t, want, accum1, "weighted sum")
}

// TestFullBudgetSanitizesSerially is a round whose client workers fill
// every core: they hold the whole CPU budget, so SanitizeBatch runs every
// example on its caller and allocates nothing — no closure, no WaitGroup,
// no goroutine. With the budget empty the same job forks, and gives every
// helper back.
func TestFullBudgetSanitizesSerially(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 8
	noise := tensor.NewCounterRNG(3, 9)
	source := gradGroup(31, 3)
	bufs := make([][]*tensor.Tensor, n)
	for i := range bufs {
		bufs[i] = tensor.ZerosLike(source)
	}
	job := BatchSanitizeJob{
		N: n,
		Recover: func(i int, dst []*tensor.Tensor) {
			for li, t := range dst {
				t.CopyFrom(source[li])
			}
		},
		Sanitize: func(i int, g []*tensor.Tensor) {
			SanitizeCounterNorm(g, 4, 0.5, noise.Derive(int64(i)))
		},
		Bufs:   bufs,
		Accum:  tensor.ZerosLike(source),
		Weight: 1.0 / n,
	}
	if a := allocsPerCall(20, func() { SanitizeBatch(job) }); a == 0 {
		t.Fatal("an empty budget at GOMAXPROCS 4 forked no helper")
	}
	if b := tensor.Busy(); b != 0 {
		t.Fatalf("SanitizeBatch left %d helpers in the CPU budget", b)
	}
	tensor.AddBusy(4)
	defer tensor.AddBusy(-4)
	if a := allocsPerCall(20, func() { SanitizeBatch(job) }); a != 0 {
		t.Fatalf("SanitizeBatch under a full CPU budget allocated %d times per call, want 0", a)
	}
}

// allocsPerCall is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which the budget has no idle core to fork onto and every call is serial.
func allocsPerCall(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestSanitizeCounterNormIsGroupNorm pins the first local step's norm
// statistic: SanitizeCounterNorm returns groupNormChunked of the
// unsanitized group bit for bit, on layers that straddle the norm-chunk
// edge and past a clip, and sanitizes exactly as SanitizeCounter does.
func TestSanitizeCounterNormIsGroupNorm(t *testing.T) {
	noise := tensor.NewCounterRNG(13, 5)
	for _, scale := range []float64{1e-3, 0.05, 3, 40} {
		g := gradGroup(17, scale)
		want := groupNormChunked(g)
		h := cloneGroup(g)
		SanitizeCounter(h, 4, 0.5, noise)
		if got := SanitizeCounterNorm(g, 4, 0.5, noise); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scale %v: group norm %v (%#016x), groupNormChunked %v (%#016x)",
				scale, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		groupsEqualBits(t, h, g, "SanitizeCounterNorm vs SanitizeCounter")
	}
}

// TestSanitizeCounterNoiseIsKeyed pins the stream identity property: the
// same (key, layer, offset) always produces the same noise, and different
// derived keys produce different noise.
func TestSanitizeCounterNoiseIsKeyed(t *testing.T) {
	noise := tensor.NewCounterRNG(33)
	a := tensor.New(100)
	b := tensor.New(100)
	SanitizeCounter([]*tensor.Tensor{a}, 1, 1, noise.Derive(1))
	SanitizeCounter([]*tensor.Tensor{b}, 1, 1, noise.Derive(1))
	groupsEqualBits(t, []*tensor.Tensor{a}, []*tensor.Tensor{b}, "same key")
	c := tensor.New(100)
	SanitizeCounter([]*tensor.Tensor{c}, 1, 1, noise.Derive(2))
	if a.Equal(c, 1e-12) {
		t.Fatal("different derived keys must give different noise")
	}
}
