package tensor

import (
	"math"
	"runtime"
	"testing"
)

// naiveMatMul is the reference triple loop the kernels are checked against.
func naiveMatMul(a, b *Tensor, ta, tb bool) *Tensor {
	dim := func(t *Tensor, tr bool) (r, c int) {
		r, c = t.shape[0], t.shape[1]
		if tr {
			r, c = c, r
		}
		return
	}
	at := func(t *Tensor, tr bool, i, j int) float64 {
		if tr {
			i, j = j, i
		}
		return t.data[i*t.shape[1]+j]
	}
	m, k := dim(a, ta)
	k2, n := dim(b, tb)
	if k != k2 {
		panic("naiveMatMul dimension mismatch")
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += at(a, ta, i, x) * at(b, tb, x, j)
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

func randomMat(rng *RNG, r, c int) *Tensor {
	t := New(r, c)
	rng.FillUniform(t, -1, 1)
	return t
}

func TestMatMulVariantsAgainstNaive(t *testing.T) {
	rng := NewRNG(7)
	// Sizes straddle the parallel threshold so both serial and parallel
	// paths are exercised.
	sizes := [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 80, 96}}
	for _, s := range sizes {
		m, k, n := s[0], s[1], s[2]
		a := randomMat(rng, m, k)
		b := randomMat(rng, k, n)
		bt := randomMat(rng, n, k)
		at := randomMat(rng, k, m)

		if got, want := MatMul(nil, a, b), naiveMatMul(a, b, false, false); !got.Equal(want, 1e-12) {
			t.Fatalf("MatMul (%d,%d,%d) mismatch", m, k, n)
		}
		if got, want := MatMulT(nil, a, bt), naiveMatMul(a, bt, false, true); !got.Equal(want, 1e-12) {
			t.Fatalf("MatMulT (%d,%d,%d) mismatch", m, k, n)
		}
		if got, want := MatMulTN(nil, at, b), naiveMatMul(at, b, true, false); !got.Equal(want, 1e-12) {
			t.Fatalf("MatMulTN (%d,%d,%d) mismatch", m, k, n)
		}
	}
}

func TestAddMatMulAccumulates(t *testing.T) {
	rng := NewRNG(11)
	a := randomMat(rng, 6, 5)
	b := randomMat(rng, 5, 4)
	dst := randomMat(rng, 6, 4)
	want := dst.Clone()
	want.Add(naiveMatMul(a, b, false, false))
	AddMatMul(dst, a, b)
	if !dst.Equal(want, 1e-12) {
		t.Fatal("AddMatMul did not accumulate into dst")
	}

	bt := randomMat(rng, 4, 5)
	dst2 := randomMat(rng, 6, 4)
	want2 := dst2.Clone()
	want2.Add(naiveMatMul(a, bt, false, true))
	AddMatMulT(dst2, a, bt)
	if !dst2.Equal(want2, 1e-12) {
		t.Fatal("AddMatMulT did not accumulate into dst")
	}

	at := randomMat(rng, 5, 6)
	dst3 := randomMat(rng, 6, 4)
	want3 := dst3.Clone()
	want3.Add(naiveMatMul(at, b, true, false))
	AddMatMulTN(dst3, at, b)
	if !dst3.Equal(want3, 1e-12) {
		t.Fatal("AddMatMulTN did not accumulate into dst")
	}
}

func TestMatMulMatchesMatVecBitwise(t *testing.T) {
	// The batched engine relies on MatMulT reproducing MatVec exactly: one
	// row of X·Wᵀ must be bit-for-bit W·x (same accumulation order).
	rng := NewRNG(3)
	w := randomMat(rng, 13, 29)
	x := New(4, 29)
	rng.FillUniform(x, -2, 2)
	y := MatMulT(nil, x, w)
	for i := 0; i < 4; i++ {
		ref := MatVec(w, x.Row(i))
		for j, v := range ref.Data() {
			if y.At(i, j) != v {
				t.Fatalf("row %d col %d: batched %v != MatVec %v", i, j, y.At(i, j), v)
			}
		}
	}
}

func TestIm2ColShapesAndValues(t *testing.T) {
	// 1×4×4 image, k=3, stride=1, pad=1 → 9×16 patch matrix.
	x := New(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i + 1)
	}
	cols := Im2Col(nil, x, 1, 4, 4, 3, 1, 1)
	if cols.Shape()[0] != 9 || cols.Shape()[1] != 16 {
		t.Fatalf("Im2Col shape %v, want (9,16)", cols.Shape())
	}
	// Center tap (ky=1,kx=1) must reproduce the image itself.
	center := cols.Row(4)
	for i, v := range center.Data() {
		if v != x.Data()[i] {
			t.Fatalf("center tap %d = %v, want %v", i, v, x.Data()[i])
		}
	}
	// Top-left tap (ky=0,kx=0) of output (0,0) reads padding.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padded tap = %v, want 0", cols.At(0, 0))
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// ⟨Im2Col(x), c⟩ == ⟨x, Col2Im(c)⟩ for random x, c — the defining
	// property that makes the GEMM backward pass correct.
	rng := NewRNG(5)
	c, h, w, k, stride, pad := 2, 5, 6, 3, 2, 1
	x := New(c, h, w)
	rng.FillUniform(x, -1, 1)
	cols := Im2Col(nil, x, c, h, w, k, stride, pad)
	cr := New(cols.Shape()...)
	rng.FillUniform(cr, -1, 1)
	lhs := cols.Dot(cr)
	img := Col2Im(nil, cr, c, h, w, k, stride, pad)
	rhs := x.Dot(img)
	if math.Abs(lhs-rhs) > 1e-10 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestIm2ColKernelLargerThanPaddedExtent(t *testing.T) {
	// Regression: with in+pad < k <= in+2*pad some kernel taps see no valid
	// input at all. At stride 2 (in=1, pad=2, k=4 → convOut=1, taps kx=3
	// see nothing) truncation-toward-zero division used to admit ox=0 and
	// read out of range; at stride 1 (k=5 → convOut=1, taps kx=0 and 4 see
	// nothing) the first valid position came out past the last output
	// position and the zero fill ran off the row.
	for _, tc := range []struct{ k, stride int }{{4, 2}, {5, 1}} {
		x := New(1, 1, 1)
		x.Data()[0] = 5
		kk := tc.k * tc.k
		cols := Im2Col(nil, x, 1, 1, 1, tc.k, tc.stride, 2)
		if cols.Shape()[0] != kk || cols.Shape()[1] != 1 {
			t.Fatalf("k=%d stride=%d: cols shape %v, want (%d,1)", tc.k, tc.stride, cols.Shape(), kk)
		}
		// Only the tap aligned with the single input pixel (ky=2, kx=2) is
		// non-zero: 0*stride-2+2 = 0.
		for r := 0; r < kk; r++ {
			want := 0.0
			if r == 2*tc.k+2 {
				want = 5
			}
			if cols.At(r, 0) != want {
				t.Fatalf("k=%d stride=%d: tap %d = %v, want %v", tc.k, tc.stride, r, cols.At(r, 0), want)
			}
		}
		// And the adjoint must not write out of range either.
		img := Col2Im(nil, cols, 1, 1, 1, tc.k, tc.stride, 2)
		if img.Data()[0] != 5 {
			t.Fatalf("k=%d stride=%d: col2im round trip = %v, want 5", tc.k, tc.stride, img.Data()[0])
		}
	}
}

func TestParallelRowsUnderRaisedGOMAXPROCS(t *testing.T) {
	// Exercise the goroutine fan-out and slot accounting even on a
	// single-core host, and verify repeated large GEMMs do not deadlock
	// (slots must be released after every call).
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := NewRNG(17)
	a := randomMat(rng, 96, 64)
	b := randomMat(rng, 64, 96)
	want := naiveMatMul(a, b, false, false)
	for i := 0; i < 20; i++ {
		if got := MatMul(nil, a, b); !got.Equal(want, 1e-12) {
			t.Fatalf("parallel MatMul iteration %d mismatch", i)
		}
	}
	// With all slots occupied the kernels must degrade to serial, not block.
	filled := 0
	for {
		select {
		case gemmSlots <- struct{}{}:
			filled++
			continue
		default:
		}
		break
	}
	defer func() {
		for i := 0; i < filled; i++ {
			<-gemmSlots
		}
	}()
	if got := MatMul(nil, a, b); !got.Equal(want, 1e-12) {
		t.Fatal("serial-fallback MatMul mismatch under slot exhaustion")
	}
}

func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	t1 := a.Get(3, 4)
	t1.Fill(7)
	a.Put(t1)
	t2 := a.Get(4, 3) // same element count, different shape
	if t2 != t1 {
		t.Fatal("arena did not reuse the returned buffer")
	}
	if t2.Shape()[0] != 4 || t2.Shape()[1] != 3 {
		t.Fatalf("reused buffer shape %v, want (4,3)", t2.Shape())
	}
	for _, v := range t2.Data() {
		if v != 0 {
			t.Fatal("reused buffer not zeroed")
		}
	}
	t3 := a.Get(3, 4)
	if t3 == t2 {
		t.Fatal("arena handed out an in-use buffer")
	}
}

// TestArenaHitAllocatesNothing pins a Get the arena can serve to zero
// allocations: the reused tensor keeps its shape slice when the rank
// matches.
func TestArenaHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a := NewArena()
	a.Put(a.Get(3, 4))
	if n := testing.AllocsPerRun(100, func() { a.Put(a.Get(4, 3)) }); n != 0 {
		t.Fatalf("arena hit: %v allocations, want 0", n)
	}
	if x := a.Get(2, 6); x.Shape()[0] != 2 || x.Shape()[1] != 6 {
		t.Fatalf("reused buffer shape %v, want (2,6)", x.Shape())
	}
}

func TestNilArenaAllocates(t *testing.T) {
	var a *Arena
	x := a.Get(2, 2)
	if x == nil || x.Len() != 4 {
		t.Fatal("nil arena Get must allocate")
	}
	a.Put(x) // must not panic
}

func TestViewAndRow(t *testing.T) {
	x := New(2, 6)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	v := x.View(3, 4)
	if v.At(2, 3) != 11 {
		t.Fatalf("view value %v, want 11", v.At(2, 3))
	}
	v.Set(-1, 0, 0)
	if x.At(0, 0) != -1 {
		t.Fatal("view does not share storage")
	}
	r := x.Row(1)
	if r.Len() != 6 || r.At(0) != 6 {
		t.Fatalf("row view wrong: len=%d first=%v", r.Len(), r.At(0))
	}
	r.Set(100, 2)
	if x.At(1, 2) != 100 {
		t.Fatal("row view does not share storage")
	}
}
