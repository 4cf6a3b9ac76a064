package nn

import (
	"fmt"
	"math"

	"fedcdp/internal/tensor"
)

func exp(x float64) float64 { return math.Exp(x) }

// Dense is a fully connected layer: y = W x + b with W shaped (Out×In).
type Dense struct {
	In, Out int
	W, B    *tensor.Tensor
	GW, GB  *tensor.Tensor
	in      *tensor.Tensor

	// params and grads are what Params and Grads return, built once.
	params, grads []*tensor.Tensor

	// Batched-engine state: cached input/output-gradient batches and owned
	// output buffers (see batch.go for the execution contract); prec selects
	// the GEMM kernel width (fp64 default, fp32 bulk path).
	arena   *tensor.Arena
	prec    string
	xB, gB  *tensor.Tensor
	yB, dxB *tensor.Tensor
}

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  tensor.New(out, in),
		B:  tensor.New(out),
		GW: tensor.New(out, in),
		GB: tensor.New(out),
	}
	rng.Xavier(d.W, in, out)
	d.params = []*tensor.Tensor{d.W, d.B}
	d.grads = []*tensor.Tensor{d.GW, d.GB}
	return d
}

var _ Layer = (*Dense)(nil)

// Forward computes Wx + b for a single example.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Len() != d.In {
		panic(fmt.Sprintf("nn: dense expects input of length %d, got %d", d.In, x.Len()))
	}
	d.in = x
	y := tensor.MatVec(d.W, x)
	y.Add(d.B)
	return y
}

// Backward accumulates dL/dW = grad·xᵀ and dL/db = grad, and returns
// dL/dx = Wᵀ·grad.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.AddOuter(d.GW, 1, grad, d.in)
	d.GB.Add(grad)
	return tensor.MatVecT(d.W, grad)
}

func (d *Dense) setArena(a *tensor.Arena) { d.arena = a }

var _ precisionLayer = (*Dense)(nil)

func (d *Dense) setPrecision(p string) { d.prec = p }

func (d *Dense) fp32() bool { return d.prec == tensor.PrecisionFP32 }

// ForwardBatch computes Y = X·Wᵀ + b for a (B × In) batch in one GEMM. Each
// row reproduces Forward on that example bit-for-bit (identical accumulation
// order).
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape()[0]
	if x.Shape()[1] != d.In {
		panic(fmt.Sprintf("nn: dense expects batch width %d, got %v", d.In, x.Shape()))
	}
	d.xB = x
	d.yB = ensureBuf(d.arena, d.yB, b, d.Out)
	if d.fp32() {
		tensor.MatMulT32(d.yB, x, d.W)
	} else {
		tensor.MatMulT(d.yB, x, d.W)
	}
	yd, bd := d.yB.Data(), d.B.Data()
	for i := 0; i < b; i++ {
		row := yd[i*d.Out : (i+1)*d.Out]
		for j, v := range bd {
			row[j] += v
		}
	}
	return d.yB
}

// BackwardBatch caches the output gradient and returns dX = dY·W.
func (d *Dense) BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	d.gB = grad
	if !needDx {
		return nil
	}
	d.dxB = ensureBuf(d.arena, d.dxB, grad.Shape()[0], d.In)
	if d.fp32() {
		tensor.MatMul32(d.dxB, grad, d.W)
	} else {
		tensor.MatMul(d.dxB, grad, d.W)
	}
	return d.dxB
}

// AccumGrads adds the batch-summed gradients: GW += dYᵀ·X (one GEMM) and
// GB += column sums of dY.
func (d *Dense) AccumGrads() {
	if d.fp32() {
		tensor.AddMatMulTN32(d.GW, d.gB, d.xB)
	} else {
		tensor.AddMatMulTN(d.GW, d.gB, d.xB)
	}
	b := d.gB.Shape()[0]
	gd, gbd := d.gB.Data(), d.GB.Data()
	for i := 0; i < b; i++ {
		row := gd[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			gbd[j] += v
		}
	}
}

// ExampleGrads recovers example i's gradient as the rank-1 outer product
// dY_i ⊗ X_i from the cached batch buffers — tensor.AddOuter's arithmetic
// into a zeroed dW, on raw rows: examples are recovered concurrently, and a
// view header per row would be an allocation per example.
func (d *Dense) ExampleGrads(i int, dst []*tensor.Tensor) {
	g := d.gB.Data()[i*d.Out : (i+1)*d.Out]
	x := d.xB.Data()[i*d.In : (i+1)*d.In]
	dw, db := dst[0].Data(), dst[1].Data()
	if len(dw) != d.Out*d.In || len(db) != d.Out {
		panic(fmt.Sprintf("nn: dense example gradient wants %d+%d elements, got %d+%d", d.Out*d.In, d.Out, len(dw), len(db)))
	}
	dst[0].Zero()
	for r, gv := range g {
		if gv == 0 {
			continue
		}
		row := dw[r*d.In : (r+1)*d.In]
		for c, xv := range x {
			row[c] += gv * xv
		}
	}
	copy(db, g)
}

// Params returns {W, b}. The slice is the layer's own: callers must not
// modify it.
func (d *Dense) Params() []*tensor.Tensor { return d.params }

// Grads returns {dW, db}, the layer's own slice like Params.
func (d *Dense) Grads() []*tensor.Tensor { return d.grads }

// ZeroGrads clears the accumulated gradients.
func (d *Dense) ZeroGrads() {
	d.GW.Zero()
	d.GB.Zero()
}

// Name returns "dense".
func (d *Dense) Name() string { return "dense" }
