package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
// The zero value is an empty tensor; use New or FromSlice to construct one.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
// The panic formats the copy, not the argument, so shape does not escape
// and a call with literal dimensions allocates no argument slice.
func New(shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat storage. Mutations are visible to the
// tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// View returns a tensor sharing t's storage under a new shape. The element
// count must match; mutations through either tensor are visible to both.
func (t *Tensor) View(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: view shape %v does not match length %d", shape, len(t.data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// Row returns a vector view of row i of a rank-2 tensor (shared storage).
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row wants a rank-2 tensor, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	if i < 0 || i >= rows {
		panic(fmt.Sprintf("tensor: row %d out of range for shape %v", i, t.shape))
	}
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols : (i+1)*cols]}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. The tensors must have equal lengths;
// shapes may differ (reshape-on-copy).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: copy length mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// AddScaled adds alpha*other to t in place (axpy). Lengths must match.
func (t *Tensor) AddScaled(alpha float64, other *Tensor) {
	Axpy(t.data, alpha, other.data)
}

// Axpy adds alpha·src[j] to dst[j] for every j, each element rounded as
// dst[j] + float64(alpha·src[j]): the row pass under AddScaled (and so Add,
// Sub and AddAllScaled), AddOuter, MatVecT and the per-example outer
// products. Lengths must match.
func Axpy(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	rowKernel(dst, alpha, src)
}

// Add adds other to t element-wise in place.
func (t *Tensor) Add(other *Tensor) { t.AddScaled(1, other) }

// Sub subtracts other from t element-wise in place.
func (t *Tensor) Sub(other *Tensor) { t.AddScaled(-1, other) }

// Scale multiplies every element by alpha in place.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Dot returns the inner product of t and other viewed as flat vectors.
func (t *Tensor) Dot(other *Tensor) float64 {
	if len(t.data) != len(other.data) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(t.data), len(other.data)))
	}
	var s float64
	for i, v := range t.data {
		s += float64(v * other.data[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// ClipL2 scales t in place so that its L2 norm is at most c, following the
// DP-SGD convention t <- t / max(1, ||t||/c). It returns the norm before
// clipping. A non-positive c leaves t unchanged and is reported as no-op.
func (t *Tensor) ClipL2(c float64) float64 {
	n := t.L2Norm()
	if c <= 0 || n <= c {
		return n
	}
	t.Scale(c / n)
	return n
}

// MaxAbs returns the largest absolute element value, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether t and other have identical shapes and element-wise
// absolute differences no larger than tol.
func (t *Tensor) Equal(other *Tensor, tol float64) bool {
	if len(t.shape) != len(other.shape) {
		return false
	}
	for i, d := range t.shape {
		if other.shape[i] != d {
			return false
		}
	}
	for i, v := range t.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact shape+summary rendering.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(shape=%v, n=%d, norm=%.4g)", t.shape, len(t.data), t.L2Norm())
}

// MatVec computes y = W x for a (rows×cols) matrix W and length-cols vector
// x, returning a new length-rows vector.
func MatVec(w *Tensor, x *Tensor) *Tensor {
	if len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatVec wants rank-2 matrix, got shape %v", w.shape))
	}
	rows, cols := w.shape[0], w.shape[1]
	if x.Len() != cols {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x %d", w.shape, x.Len()))
	}
	y := New(rows)
	wd, xd, yd := w.data, x.data, y.data
	for r := 0; r < rows; r++ {
		row := wd[r*cols : (r+1)*cols]
		var s float64
		for c, v := range row {
			s += float64(v * xd[c])
		}
		yd[r] = s
	}
	return y
}

// MatVecT computes y = Wᵀ x for a (rows×cols) matrix W and length-rows
// vector x, returning a new length-cols vector.
func MatVecT(w *Tensor, x *Tensor) *Tensor {
	if len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatVecT wants rank-2 matrix, got shape %v", w.shape))
	}
	rows, cols := w.shape[0], w.shape[1]
	if x.Len() != rows {
		panic(fmt.Sprintf("tensor: MatVecT dimension mismatch %vᵀ x %d", w.shape, x.Len()))
	}
	y := New(cols)
	wd, xd, yd := w.data, x.data, y.data
	for r := 0; r < rows; r++ {
		if xv := xd[r]; xv != 0 {
			rowKernel(yd, xv, wd[r*cols:(r+1)*cols])
		}
	}
	return y
}

// AddOuter adds alpha * a bᵀ to the (len(a)×len(b)) matrix w in place.
func AddOuter(w *Tensor, alpha float64, a, b *Tensor) {
	if len(w.shape) != 2 || w.shape[0] != a.Len() || w.shape[1] != b.Len() {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch %v vs %d x %d", w.shape, a.Len(), b.Len()))
	}
	rows, cols := w.shape[0], w.shape[1]
	wd, ad, bd := w.data, a.data, b.data
	for r := 0; r < rows; r++ {
		if av := alpha * ad[r]; av != 0 {
			rowKernel(wd[r*cols:(r+1)*cols], av, bd)
		}
	}
}

// GroupL2Norm returns the Euclidean norm of a set of tensors viewed as one
// concatenated vector.
func GroupL2Norm(ts []*Tensor) float64 {
	var s float64
	for _, t := range ts {
		for _, v := range t.data {
			s += float64(v * v)
		}
	}
	return math.Sqrt(s)
}

// CloneAll deep-copies a slice of tensors.
func CloneAll(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// ZerosLike returns zero tensors with the same shapes as ts.
func ZerosLike(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	for i, t := range ts {
		out[i] = New(t.shape...)
	}
	return out
}

// AddAllScaled performs dst[i] += alpha*src[i] for each tensor pair.
func AddAllScaled(dst []*Tensor, alpha float64, src []*Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddAllScaled length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, d := range dst {
		d.AddScaled(alpha, src[i])
	}
}

// ScaleAll multiplies every tensor in ts by alpha in place.
func ScaleAll(ts []*Tensor, alpha float64) {
	for _, t := range ts {
		t.Scale(alpha)
	}
}
