package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestSplitStability(t *testing.T) {
	a := Split(7, 1, 2)
	b := Split(7, 1, 2)
	if a.Float64() != b.Float64() {
		t.Fatal("Split must be deterministic in (seed, labels)")
	}
	// Different labels should (overwhelmingly) give different streams:
	// compare each child's first draw.
	a0, c0, d0 := Split(7, 1, 2).Float64(), Split(7, 1, 3).Float64(), Split(7, 2, 2).Float64()
	if a0 == c0 || c0 == d0 || a0 == d0 {
		t.Fatalf("Split children share a first draw across labels: %v %v %v", a0, c0, d0)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("std = %v, want ~3", math.Sqrt(variance))
	}
}

func TestFillUniformRange(t *testing.T) {
	g := NewRNG(2)
	tt := New(1000)
	g.FillUniform(tt, -1, 1)
	for _, v := range tt.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform sample %v outside [-1,1)", v)
		}
	}
}

func TestAddNormalZeroStdIsNoop(t *testing.T) {
	g := NewRNG(3)
	tt := FromSlice([]float64{1, 2, 3}, 3)
	g.AddNormal(tt, 0)
	if tt.At(0) != 1 || tt.At(1) != 2 || tt.At(2) != 3 {
		t.Fatal("AddNormal with std=0 must not modify the tensor")
	}
}

func TestAddNormalChangesValues(t *testing.T) {
	g := NewRNG(3)
	tt := New(100)
	g.AddNormal(tt, 1)
	if tt.L2Norm() == 0 {
		t.Fatal("AddNormal with std=1 must perturb the tensor")
	}
}

func TestXavierBound(t *testing.T) {
	g := NewRNG(4)
	w := New(10, 20)
	g.Xavier(w, 20, 10)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("xavier sample %v outside ±%v", v, limit)
		}
	}
}

func TestSampleWithReplacementRange(t *testing.T) {
	g := NewRNG(5)
	idx := g.SampleWithReplacement(10, 1000)
	if len(idx) != 1000 {
		t.Fatalf("got %d samples, want 1000", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
		seen[i] = true
	}
	if len(seen) < 8 {
		t.Fatalf("with-replacement sampling covered only %d/10 values", len(seen))
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	g := NewRNG(6)
	idx := g.SampleWithoutReplacement(10, 10)
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when n > pop")
		}
	}()
	NewRNG(7).SampleWithoutReplacement(3, 4)
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(8)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in Perm", v)
		}
		seen[v] = true
	}
}

func TestReseedMatchesSplit(t *testing.T) {
	g := NewRNG(0)
	for _, labels := range [][]int64{{4, 0, 0}, {4, 7, 99}, {12, 3}, {5}} {
		g.Reseed(42, labels...)
		fresh := Split(42, labels...)
		for i := 0; i < 16; i++ {
			if a, b := g.Int63(), fresh.Int63(); a != b {
				t.Fatalf("labels %v draw %d: Reseed stream %d != Split stream %d", labels, i, a, b)
			}
		}
	}
}

// TestSplitFloat64MatchesSplit pins the closed-form first coin to the
// stream it stands for over 2·10⁵ keys of the shapes the callers use —
// (label, round, client) and (label, stream, index) — and to zero
// allocations per call.
func TestSplitFloat64MatchesSplit(t *testing.T) {
	for seed := int64(-1); seed <= 1; seed++ {
		for a := int64(0); a < 300; a++ {
			for b := int64(-1); b < 222; b++ {
				got, want := SplitFloat64(seed, 4000+a%3, a, b), Split(seed, 4000+a%3, a, b).Float64()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("SplitFloat64(%d, %d, %d, %d) = %v, Split stream's first Float64 %v", seed, 4000+a%3, a, b, got, want)
				}
			}
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { SplitFloat64(42, 9, 3, 7) }); n != 0 {
		t.Fatalf("SplitFloat64: %v allocations per call, want 0", n)
	}
}

func TestSampleDistinctFloyd(t *testing.T) {
	g := Split(99, 12, 3)
	got := g.SampleDistinctFloyd(100000, 1000)
	if len(got) != 1000 {
		t.Fatalf("got %d indices, want 1000", len(got))
	}
	seen := map[int]bool{}
	for i, v := range got {
		if v < 0 || v >= 100000 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
		if i > 0 && got[i-1] >= v {
			t.Fatalf("result not sorted ascending at %d", i)
		}
	}
	again := Split(99, 12, 3).SampleDistinctFloyd(100000, 1000)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("same seed drew different cohorts at %d", i)
		}
	}
	if full := Split(1).SampleDistinctFloyd(8, 8); len(full) != 8 || full[0] != 0 || full[7] != 7 {
		t.Fatalf("n == pop should select everyone, got %v", full)
	}
}

func TestSampleDistinctFloydPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when n > pop")
		}
	}()
	NewRNG(7).SampleDistinctFloyd(3, 4)
}
