package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if got := tt.Len(); got != 24 {
		t.Fatalf("Len = %d, want 24", got)
	}
	if s := tt.Shape(); len(s) != 3 || s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("Shape = %v, want [2 3 4]", s)
	}
	for _, v := range tt.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceRoundTrip(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", tt.At(1, 2))
	}
	tt.Set(9, 0, 1)
	if d[1] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape/data mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.Add(b)
	want := []float64{5, 7, 9}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add: a[%d]=%v want %v", i, v, want[i])
		}
	}
	a.Sub(b)
	for i, v := range a.Data() {
		if v != float64(i+1) {
			t.Fatalf("Sub: a[%d]=%v want %v", i, v, i+1)
		}
	}
	a.Scale(2)
	if a.At(2) != 6 {
		t.Fatalf("Scale: got %v want 6", a.At(2))
	}
	a.AddScaled(0.5, b)
	if a.At(0) != 4 {
		t.Fatalf("AddScaled: got %v want 4", a.At(0))
	}
}

func TestDotAndNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if got := a.Dot(a); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := a.L2Norm(); got != 5 {
		t.Fatalf("L2Norm = %v, want 5", got)
	}
}

func TestClipL2(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	pre := a.ClipL2(1)
	if pre != 5 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if math.Abs(a.L2Norm()-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", a.L2Norm())
	}
	// Below the bound: unchanged.
	b := FromSlice([]float64{0.3, 0.4}, 2)
	b.ClipL2(1)
	if b.At(0) != 0.3 || b.At(1) != 0.4 {
		t.Fatal("ClipL2 must not modify vectors inside the ball")
	}
	// Non-positive bound: no-op.
	c := FromSlice([]float64{3, 4}, 2)
	c.ClipL2(0)
	if c.At(0) != 3 {
		t.Fatal("ClipL2(0) must be a no-op")
	}
}

func TestClipL2PropertyNormBounded(t *testing.T) {
	f := func(xs []float64, c float64) bool {
		if len(xs) == 0 {
			return true
		}
		c = math.Abs(c) + 0.01
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				xs[i] = 1
			}
		}
		tt := FromSlice(xs, len(xs))
		tt.ClipL2(c)
		return tt.L2Norm() <= c*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClipL2PropertyDirectionPreserved(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		v := New(16)
		g.FillNormal(v, 0, 3)
		orig := v.Clone()
		v.ClipL2(0.5)
		// v must be a non-negative multiple of orig.
		dot := v.Dot(orig)
		return dot >= 0 && math.Abs(dot-v.L2Norm()*orig.L2Norm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVec(t *testing.T) {
	w := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3) // [[1 2 3],[4 5 6]]
	x := FromSlice([]float64{1, 0, -1}, 3)
	y := MatVec(w, x)
	if y.At(0) != -2 || y.At(1) != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", y.Data())
	}
}

func TestMatVecT(t *testing.T) {
	w := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 1}, 2)
	y := MatVecT(w, x)
	want := []float64{5, 7, 9}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("MatVecT[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatVecTransposeConsistency(t *testing.T) {
	// Property: yᵀ(Wx) == (Wᵀy)ᵀx for random W, x, y.
	f := func(seed int64) bool {
		g := NewRNG(seed)
		w := New(4, 6)
		x := New(6)
		y := New(4)
		g.FillNormal(w, 0, 1)
		g.FillNormal(x, 0, 1)
		g.FillNormal(y, 0, 1)
		lhs := y.Dot(MatVec(w, x))
		rhs := MatVecT(w, y).Dot(x)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddOuter(t *testing.T) {
	w := New(2, 2)
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	AddOuter(w, 1, a, b)
	want := []float64{3, 4, 6, 8}
	for i, v := range w.Data() {
		if v != want[i] {
			t.Fatalf("AddOuter[%d] = %v, want %v", i, v, want[i])
		}
	}
	AddOuter(w, -1, a, b)
	for _, v := range w.Data() {
		if v != 0 {
			t.Fatal("AddOuter with alpha=-1 must cancel")
		}
	}
}

func TestGroupL2Norm(t *testing.T) {
	a := FromSlice([]float64{3}, 1)
	b := FromSlice([]float64{4}, 1)
	if got := GroupL2Norm([]*Tensor{a, b}); got != 5 {
		t.Fatalf("GroupL2Norm = %v, want 5", got)
	}
}

func TestSliceHelpers(t *testing.T) {
	a := []*Tensor{FromSlice([]float64{1, 2}, 2), FromSlice([]float64{3}, 1)}
	c := CloneAll(a)
	c[0].Set(9, 0)
	if a[0].At(0) != 1 {
		t.Fatal("CloneAll must deep-copy")
	}
	z := ZerosLike(a)
	if z[0].Len() != 2 || z[1].Len() != 1 || z[0].L2Norm() != 0 {
		t.Fatal("ZerosLike shape/zero mismatch")
	}
	AddAllScaled(z, 2, a)
	if z[0].At(1) != 4 || z[1].At(0) != 6 {
		t.Fatal("AddAllScaled wrong result")
	}
	ScaleAll(z, 0.5)
	if z[0].At(1) != 2 {
		t.Fatal("ScaleAll wrong result")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if !a.Equal(b, 1e-6) {
		t.Fatal("Equal within tol must hold")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("Equal outside tol must fail")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if a.Equal(c, 1) {
		t.Fatal("Equal must compare shapes")
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromSlice([]float64{-3, 2}, 2)
	if got := a.MaxAbs(); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
	if got := New(0).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs(empty) = %v, want 0", got)
	}
}

func TestStringMentionsShape(t *testing.T) {
	s := New(2, 2).String()
	if s == "" {
		t.Fatal("String must be non-empty")
	}
}

// TestAtSetAllocateNothing: the out-of-range panic formats a copy of the
// index, so the variadic index slice stays on the caller's stack and a
// per-element loop over At / Set allocates nothing.
func TestAtSetAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	tt := New(2, 3, 4)
	if n := testing.AllocsPerRun(100, func() { tt.Set(tt.At(1, 2, 3)+1, 1, 2, 3) }); n != 0 {
		t.Fatalf("At + Set allocate %.0f objects per call, want 0", n)
	}
}
