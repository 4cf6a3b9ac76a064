package dp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fedcdp/internal/tensor"
)

func TestFixedClip(t *testing.T) {
	p := FixedClip{C: 4}
	for _, r := range []int{0, 50, 99} {
		if p.Bound(r, 100) != 4 {
			t.Fatalf("fixed bound changed at round %d", r)
		}
	}
}

func TestLinearDecayEndpoints(t *testing.T) {
	p := LinearDecay{From: 6, To: 2}
	if got := p.Bound(0, 100); got != 6 {
		t.Fatalf("round 0 bound = %v, want 6", got)
	}
	if got := p.Bound(99, 100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("final bound = %v, want 2", got)
	}
	mid := p.Bound(49, 100)
	if mid >= 6 || mid <= 2 {
		t.Fatalf("mid bound %v not strictly between", mid)
	}
}

func TestLinearDecayMonotone(t *testing.T) {
	p := LinearDecay{From: 6, To: 2}
	prev := math.Inf(1)
	for r := 0; r < 100; r++ {
		b := p.Bound(r, 100)
		if b > prev {
			t.Fatalf("linear decay increased at round %d", r)
		}
		prev = b
	}
}

func TestLinearDecaySingleRound(t *testing.T) {
	p := LinearDecay{From: 6, To: 2}
	if got := p.Bound(0, 1); got != 6 {
		t.Fatalf("single-round bound = %v, want From", got)
	}
}

func TestExpDecayFloor(t *testing.T) {
	p := ExpDecay{From: 8, Rate: 0.5, Min: 1}
	if got := p.Bound(0, 10); got != 8 {
		t.Fatalf("round 0 = %v", got)
	}
	if got := p.Bound(10, 10); got != 1 {
		t.Fatalf("floored bound = %v, want 1", got)
	}
}

func TestStepDecay(t *testing.T) {
	p := StepDecay{From: 8, Factor: 0.5, Every: 10, Min: 1}
	if got := p.Bound(9, 100); got != 8 {
		t.Fatalf("bound before first step = %v, want 8", got)
	}
	if got := p.Bound(10, 100); got != 4 {
		t.Fatalf("bound after first step = %v, want 4", got)
	}
	if got := p.Bound(95, 100); got != 1 {
		t.Fatalf("floored step bound = %v, want 1", got)
	}
	// Every <= 0 degrades to fixed.
	if got := (StepDecay{From: 3}).Bound(50, 100); got != 3 {
		t.Fatalf("Every=0 bound = %v, want 3", got)
	}
}

func TestPolicyStringsNonEmpty(t *testing.T) {
	for _, p := range []ClipPolicy{
		FixedClip{4}, LinearDecay{6, 2}, ExpDecay{8, 0.9, 1}, StepDecay{8, 0.5, 10, 1},
	} {
		if p.String() == "" {
			t.Fatalf("%T has empty String()", p)
		}
	}
}

func TestClipLayersIndependent(t *testing.T) {
	a := tensor.FromSlice([]float64{3, 4}, 2)   // norm 5
	b := tensor.FromSlice([]float64{0.3, 0}, 2) // norm .3
	norms := ClipLayers([]*tensor.Tensor{a, b}, 1)
	if norms[0] != 5 || math.Abs(norms[1]-0.3) > 1e-12 {
		t.Fatalf("pre-clip norms = %v", norms)
	}
	if math.Abs(a.L2Norm()-1) > 1e-9 {
		t.Fatalf("layer a norm after clip = %v, want 1", a.L2Norm())
	}
	if math.Abs(b.L2Norm()-0.3) > 1e-12 {
		t.Fatal("layer b inside ball must be unchanged")
	}
}

func TestClipLayersProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		grads := []*tensor.Tensor{tensor.New(10), tensor.New(20)}
		for _, g := range grads {
			rng.FillNormal(g, 0, 5)
		}
		ClipLayers(grads, 2)
		for _, g := range grads {
			if g.L2Norm() > 2*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddGaussianStatistics(t *testing.T) {
	rng := tensor.NewRNG(1)
	g := tensor.New(100000)
	AddGaussian([]*tensor.Tensor{g}, 2, 3, rng) // std = 6
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

func TestAddGaussianZeroSigmaNoop(t *testing.T) {
	rng := tensor.NewRNG(2)
	g := tensor.FromSlice([]float64{1, 2}, 2)
	AddGaussian([]*tensor.Tensor{g}, 0, 4, rng)
	if g.At(0) != 1 || g.At(1) != 2 {
		t.Fatal("sigma=0 must not perturb gradients")
	}
}

func TestSanitizeBoundsSignal(t *testing.T) {
	// After Sanitize, the signal part is clipped: check the deterministic
	// component by sanitizing with sigma=0.
	rng := tensor.NewRNG(3)
	g := tensor.New(50)
	rng.FillNormal(g, 0, 10)
	Sanitize([]*tensor.Tensor{g}, 4, 0, rng)
	if g.L2Norm() > 4*(1+1e-9) {
		t.Fatalf("sanitized norm %v exceeds bound", g.L2Norm())
	}
}

func TestSanitizeAddsNoise(t *testing.T) {
	rng := tensor.NewRNG(4)
	g1 := tensor.New(100)
	g2 := g1.Clone()
	Sanitize([]*tensor.Tensor{g1}, 4, 6, rng)
	if g1.Equal(g2, 1e-12) {
		t.Fatal("Sanitize with sigma>0 must perturb gradients")
	}
}

func TestCompressPrunesSmallest(t *testing.T) {
	g := tensor.FromSlice([]float64{0.1, -5, 0.2, 3, -0.05, 1}, 6)
	kept := Compress([]*tensor.Tensor{g}, 0.5)
	if kept != 3 {
		t.Fatalf("kept %d, want 3", kept)
	}
	want := []float64{0, -5, 0, 3, 0, 1}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("compress[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestCompressEdgeRatios(t *testing.T) {
	g := tensor.FromSlice([]float64{1, 2, 3}, 3)
	if kept := Compress([]*tensor.Tensor{g}, 0); kept != 3 {
		t.Fatalf("ratio 0 kept %d, want 3", kept)
	}
	if kept := Compress([]*tensor.Tensor{g}, 1); kept != 0 {
		t.Fatalf("ratio 1 kept %d, want 0", kept)
	}
	for _, v := range g.Data() {
		if v != 0 {
			t.Fatal("ratio 1 must zero everything")
		}
	}
}

func TestCompressAcrossLayers(t *testing.T) {
	a := tensor.FromSlice([]float64{10, 0.1}, 2)
	b := tensor.FromSlice([]float64{0.2, 20}, 2)
	Compress([]*tensor.Tensor{a, b}, 0.5)
	if a.At(0) != 10 || b.At(1) != 20 {
		t.Fatal("large entries must survive cross-layer compression")
	}
	if a.At(1) != 0 || b.At(0) != 0 {
		t.Fatal("small entries must be pruned cross-layer")
	}
}

func TestCompressExactCountOnTies(t *testing.T) {
	// Every entry tied at the cutoff: exactly k must prune, not all of them
	// (the sort-based implementation zeroed the whole gradient here).
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 4)
	if kept := Compress([]*tensor.Tensor{g}, 0.5); kept != 2 {
		t.Fatalf("uniform ties kept %d, want exactly 2", kept)
	}
	nonzero := 0
	for _, v := range g.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("uniform ties left %d nonzero, want 2", nonzero)
	}
	// Ties prune in scan order: the earliest tied entries go first.
	h := tensor.FromSlice([]float64{2, 5, 2, 3, 2}, 5)
	if kept := Compress([]*tensor.Tensor{h}, 0.4); kept != 3 {
		t.Fatalf("kept %d, want 3", kept)
	}
	want := []float64{0, 5, 0, 3, 2}
	for i, v := range h.Data() {
		if v != want[i] {
			t.Fatalf("tie scan order: got %v, want %v", h.Data(), want)
		}
	}
}

func TestCompressNaNGradients(t *testing.T) {
	// Diverged training can hand Compress NaN gradients; they must rank as
	// un-prunable (kept) without panicking the quickselect partition.
	nan := math.NaN()
	g := tensor.FromSlice([]float64{0.1, nan, 3, 0.2, nan, 1}, 6)
	kept := Compress([]*tensor.Tensor{g}, 0.5)
	if kept != 3 {
		t.Fatalf("kept %d, want 3", kept)
	}
	d := g.Data()
	if d[0] != 0 || d[3] != 0 {
		t.Fatal("smallest finite magnitudes must be pruned")
	}
	if !math.IsNaN(d[1]) || !math.IsNaN(d[4]) || d[2] != 3 {
		t.Fatal("NaN and large entries must survive")
	}
}

func TestCompressPropertyExactCount(t *testing.T) {
	f := func(seed int64, ratioRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		ratio := float64(ratioRaw%99+1) / 100
		a := tensor.New(37)
		b := tensor.New(64)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		// Inject duplicates so tie handling is exercised.
		copy(b.Data()[:10], a.Data()[:10])
		total := a.Len() + b.Len()
		k := int(ratio * float64(total))
		kept := Compress([]*tensor.Tensor{a, b}, ratio)
		if kept != total-k {
			return false
		}
		nonzero := 0
		for _, g := range []*tensor.Tensor{a, b} {
			for _, v := range g.Data() {
				if v != 0 {
					nonzero++
				}
			}
		}
		// Zeros may pre-exist only if the gradient had them; FillNormal
		// essentially never produces exact zeros, so counts must agree.
		return nonzero == kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickselectMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw uint8, shape uint8) bool {
		rng := tensor.NewRNG(seed)
		n := int(kRaw)%100 + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Normal(0, 1)
		}
		switch shape % 4 {
		case 1: // sorted
			sort.Float64s(vals)
		case 2: // reversed
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		case 3: // heavy duplicates
			for i := range vals {
				vals[i] = float64(int(vals[i]*2)) / 2
			}
		}
		k := int(seed%int64(n)+int64(n)) % n
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return quickselect(vals, k) == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressPropertyKeepsLargest(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		g := tensor.New(100)
		rng.FillNormal(g, 0, 1)
		maxAbs := g.MaxAbs()
		Compress([]*tensor.Tensor{g}, 0.9)
		return g.MaxAbs() == maxAbs // the largest entry always survives
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressZeroAllocSteadyState pins the pooled-scratch contract shared
// with the binary wire codec's frame buffers (see internal/fl/codec.go):
// once the magnitude scratch is warm, Compress allocates nothing per call
// regardless of gradient size — the quickselect buffer belongs to the
// sync.Pool, not the garbage collector.
func TestCompressZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	rng := tensor.NewRNG(9)
	g := tensor.New(4096)
	orig := make([]float64, g.Len())
	rng.FillNormal(g, 0, 1)
	copy(orig, g.Data())
	grads := []*tensor.Tensor{g}
	// Warm run grows the pooled scratch past the default capacity.
	Compress(grads, 0.5)
	allocs := testing.AllocsPerRun(50, func() {
		copy(g.Data(), orig)
		Compress(grads, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("Compress allocates %.1f objects/op at steady state, want 0", allocs)
	}
}
