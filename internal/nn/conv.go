package nn

import (
	"fmt"

	"fedcdp/internal/tensor"
)

// Conv2D is a 2-D convolution over (C,H,W) tensors with square kernels,
// stride and symmetric zero padding. Weights are shaped
// (OutC, InC, K, K) and biases (OutC).
type Conv2D struct {
	InC, OutC      int
	K, Stride, Pad int
	InH, InW       int

	W, B   *tensor.Tensor
	GW, GB *tensor.Tensor
	in     *tensor.Tensor

	// params and grads are what Params and Grads return, built once.
	params, grads []*tensor.Tensor

	// Batched-engine state (see batch.go): per-example im2col patch
	// matrices for the whole batch (row i = example i's (C·K·K × OH·OW)
	// matrix, flattened), owned output/input-gradient buffers, and a
	// patch-gradient scratch.
	arena   *tensor.Arena
	prec    string
	colsB   *tensor.Tensor
	yB, dxB *tensor.Tensor
	dcols   *tensor.Tensor

	// Per-example row views of the batch buffers (see rowViews; gRows
	// views the cached output-gradient batch), and W and GW as
	// (OutC × C·K·K) matrices.
	xRows, colRows, yRows, gRows, dxRows rowViews
	wmat, gwmat                          *tensor.Tensor
}

// NewConv2D returns a convolution layer for (inC, inH, inW) inputs.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	if stride < 1 {
		panic("nn: conv stride must be >= 1")
	}
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		InH: inH, InW: inW,
		W:  tensor.New(outC, inC, k, k),
		B:  tensor.New(outC),
		GW: tensor.New(outC, inC, k, k),
		GB: tensor.New(outC),
	}
	fanIn := inC * k * k
	fanOut := outC * k * k
	rng.Xavier(c.W, fanIn, fanOut)
	c.wmat, c.gwmat = c.W.View(outC, fanIn), c.GW.View(outC, fanIn)
	c.params = []*tensor.Tensor{c.W, c.B}
	c.grads = []*tensor.Tensor{c.GW, c.GB}
	return c
}

var _ Layer = (*Conv2D)(nil)

// OutH returns the output height.
func (c *Conv2D) OutH() int { return (c.InH+2*c.Pad-c.K)/c.Stride + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return (c.InW+2*c.Pad-c.K)/c.Stride + 1 }

// OutLen returns the flattened output size OutC*OutH*OutW.
func (c *Conv2D) OutLen() int { return c.OutC * c.OutH() * c.OutW() }

// Forward convolves one (InC,InH,InW) example.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Len() != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: conv expects %d inputs, got %d", c.InC*c.InH*c.InW, x.Len()))
	}
	c.in = x
	oh, ow := c.OutH(), c.OutW()
	y := tensor.New(c.OutC, oh, ow)
	xd, wd, yd, bd := x.Data(), c.W.Data(), y.Data(), c.B.Data()
	k, st, pad := c.K, c.Stride, c.Pad
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := bd[oc]
				iy0 := oy*st - pad
				ix0 := ox*st - pad
				for ic := 0; ic < c.InC; ic++ {
					xBase := ic * c.InH * c.InW
					wBase := ((oc*c.InC + ic) * k) * k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= c.InH {
							continue
						}
						xRow := xBase + iy*c.InW
						wRow := wBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= c.InW {
								continue
							}
							sum += wd[wRow+kx] * xd[xRow+ix]
						}
					}
				}
				yd[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return y
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	oh, ow := c.OutH(), c.OutW()
	dx := tensor.New(c.InC, c.InH, c.InW)
	xd, wd := c.in.Data(), c.W.Data()
	gd, gwd, gbd, dxd := grad.Data(), c.GW.Data(), c.GB.Data(), dx.Data()
	k, st, pad := c.K, c.Stride, c.Pad
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gd[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				gbd[oc] += g
				iy0 := oy*st - pad
				ix0 := ox*st - pad
				for ic := 0; ic < c.InC; ic++ {
					xBase := ic * c.InH * c.InW
					wBase := ((oc*c.InC + ic) * k) * k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= c.InH {
							continue
						}
						xRow := xBase + iy*c.InW
						wRow := wBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= c.InW {
								continue
							}
							gwd[wRow+kx] += g * xd[xRow+ix]
							dxd[xRow+ix] += g * wd[wRow+kx]
						}
					}
				}
			}
		}
	}
	return dx
}

func (c *Conv2D) setArena(a *tensor.Arena) { c.arena = a }

var _ precisionLayer = (*Conv2D)(nil)

func (c *Conv2D) setPrecision(p string) { c.prec = p }

func (c *Conv2D) fp32() bool { return c.prec == tensor.PrecisionFP32 }

// patchDims returns the im2col geometry: rows C·K·K, columns OH·OW.
func (c *Conv2D) patchDims() (ckk, p int) {
	return c.InC * c.K * c.K, c.OutH() * c.OutW()
}

// biasRowSums reduces an (OutC × P) output-gradient matrix over its spatial
// columns — the bias gradient — accumulating into dst when add is set and
// overwriting otherwise.
func biasRowSums(dst, gd []float64, p int, add bool) {
	for oc := range dst {
		row := gd[oc*p : (oc+1)*p]
		var s float64
		for _, v := range row {
			s += v
		}
		if add {
			dst[oc] += s
		} else {
			dst[oc] = s
		}
	}
}

// rowViews holds a batch buffer's rows as (r × c) matrices, rebuilt only
// when over is handed another buffer, so no pass builds a view per example.
// ExampleGrads, which runs concurrently, only reads what the pass built.
type rowViews struct {
	of   *tensor.Tensor
	rows []*tensor.Tensor
}

func (v *rowViews) over(t *tensor.Tensor, r, c int) []*tensor.Tensor {
	if b := t.Shape()[0]; t != v.of || len(v.rows) != b {
		v.of, v.rows = t, v.rows[:0]
		for i := 0; i < b; i++ {
			v.rows = append(v.rows, t.Row(i).View(r, c))
		}
	}
	return v.rows
}

// ForwardBatch convolves a (B × InC·InH·InW) batch as im2col + GEMM: per
// example, Y_i = W_mat·cols_i + b with W viewed as (OutC × C·K·K). The
// output starts from the bias, mirroring the scalar reference's term order
// (bias first, then taps in (ic,ky,kx) order); because the NN GEMM kernel
// groups k-terms in pairs (see matmul.go), the result matches Forward to
// rounding error rather than bit-for-bit — parity tests pin it at 1e-9.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape()[0]
	if x.Shape()[1] != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: conv expects batch width %d, got %v", c.InC*c.InH*c.InW, x.Shape()))
	}
	ckk, p := c.patchDims()
	c.colsB = ensureBuf(c.arena, c.colsB, b, ckk*p)
	c.yB = ensureBuf(c.arena, c.yB, b, c.OutLen())
	xs := c.xRows.over(x, 1, x.Shape()[1])
	colss := c.colRows.over(c.colsB, ckk, p)
	ys := c.yRows.over(c.yB, c.OutC, p)
	bd := c.B.Data()
	for i := 0; i < b; i++ {
		cols, y := colss[i], ys[i]
		tensor.Im2Col(cols, xs[i], c.InC, c.InH, c.InW, c.K, c.Stride, c.Pad)
		yd := y.Data()
		for oc := 0; oc < c.OutC; oc++ {
			row := yd[oc*p : (oc+1)*p]
			for j := range row {
				row[j] = bd[oc]
			}
		}
		if c.fp32() {
			tensor.AddMatMul32(y, c.wmat, cols)
		} else {
			tensor.AddMatMul(y, c.wmat, cols)
		}
	}
	return c.yB
}

// BackwardBatch caches the output gradient and returns the input gradient:
// per example, dcols_i = W_matᵀ·dY_i followed by col2im.
func (c *Conv2D) BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	ckk, p := c.patchDims()
	gs := c.gRows.over(grad, c.OutC, p)
	if !needDx {
		return nil
	}
	b := grad.Shape()[0]
	c.dxB = ensureBuf(c.arena, c.dxB, b, c.InC*c.InH*c.InW)
	c.dcols = ensureBuf(c.arena, c.dcols, ckk, p)
	dxs := c.dxRows.over(c.dxB, 1, c.dxB.Shape()[1])
	for i := 0; i < b; i++ {
		if c.fp32() {
			tensor.MatMulTN32(c.dcols, c.wmat, gs[i])
		} else {
			tensor.MatMulTN(c.dcols, c.wmat, gs[i])
		}
		tensor.Col2Im(dxs[i], c.dcols, c.InC, c.InH, c.InW, c.K, c.Stride, c.Pad)
	}
	return c.dxB
}

// AccumGrads adds the batch-summed gradients: GW += Σ_i dY_i·cols_iᵀ and
// GB += spatial sums of dY.
func (c *Conv2D) AccumGrads() {
	_, p := c.patchDims()
	gbd := c.GB.Data()
	for i, gi := range c.gRows.rows {
		cols := c.colRows.rows[i]
		if c.fp32() {
			tensor.AddMatMulT32(c.gwmat, gi, cols)
		} else {
			tensor.AddMatMulT(c.gwmat, gi, cols)
		}
		biasRowSums(gbd, gi.Data(), p, true)
	}
}

// ExampleGrads recovers example i's gradients from the cached batch
// buffers: dW_i = dY_i·cols_iᵀ (one small GEMM), db_i = spatial sums.
// dW is MatMulT's arithmetic, written into the zeroed dst[0] itself: its
// row-major layout is the (OutC × C·K·K) matrix's, so no view is built.
func (c *Conv2D) ExampleGrads(i int, dst []*tensor.Tensor) {
	ckk, p := c.patchDims()
	if dst[0].Len() != c.OutC*ckk || dst[1].Len() != c.OutC {
		panic(fmt.Sprintf("nn: conv example gradient wants %d+%d elements, got %d+%d", c.OutC*ckk, c.OutC, dst[0].Len(), dst[1].Len()))
	}
	gi := c.gRows.rows[i]
	dst[0].Zero()
	tensor.AddMatMulT(dst[0], gi, c.colRows.rows[i])
	biasRowSums(dst[1].Data(), gi.Data(), p, false)
}

// Params returns {W, b}. The slice is the layer's own: callers must not
// modify it.
func (c *Conv2D) Params() []*tensor.Tensor { return c.params }

// Grads returns {dW, db}, the layer's own slice like Params.
func (c *Conv2D) Grads() []*tensor.Tensor { return c.grads }

// ZeroGrads clears the accumulated gradients.
func (c *Conv2D) ZeroGrads() {
	c.GW.Zero()
	c.GB.Zero()
}

// Name returns "conv2d".
func (c *Conv2D) Name() string { return "conv2d" }
