package nn

import (
	"fmt"

	"fedcdp/internal/tensor"
)

// MaxPool2 is a 2×2, stride-2 max-pooling layer over (C,H,W) tensors.
// Odd trailing rows/columns are dropped (floor semantics).
type MaxPool2 struct {
	C, H, W int
	argmax  []int

	// Batched-engine state: per-batch argmax indices and owned buffers.
	arena   *tensor.Arena
	argmaxB []int
	yB, dxB *tensor.Tensor
}

// NewMaxPool2 returns a 2×2 max-pool for (c,h,w) inputs.
func NewMaxPool2(c, h, w int) *MaxPool2 {
	return &MaxPool2{C: c, H: h, W: w}
}

var _ Layer = (*MaxPool2)(nil)

// OutH returns the pooled height.
func (p *MaxPool2) OutH() int { return p.H / 2 }

// OutW returns the pooled width.
func (p *MaxPool2) OutW() int { return p.W / 2 }

// OutLen returns the flattened output size.
func (p *MaxPool2) OutLen() int { return p.C * p.OutH() * p.OutW() }

// Forward pools one example, caching argmax indices for Backward.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Len() != p.C*p.H*p.W {
		panic(fmt.Sprintf("nn: maxpool expects %d inputs, got %d", p.C*p.H*p.W, x.Len()))
	}
	oh, ow := p.OutH(), p.OutW()
	y := tensor.New(p.C, oh, ow)
	p.argmax = make([]int, y.Len())
	xd, yd := x.Data(), y.Data()
	for c := 0; c < p.C; c++ {
		base := c * p.H * p.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + (2*oy)*p.W + 2*ox
				best := xd[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := base + (2*oy+dy)*p.W + (2*ox + dx)
						if xd[idx] > best {
							best = xd[idx]
							bestIdx = idx
						}
					}
				}
				o := (c*oh+oy)*ow + ox
				yd[o] = best
				p.argmax[o] = bestIdx
			}
		}
	}
	return y
}

// Backward routes each output gradient to its argmax input position.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.C, p.H, p.W)
	dxd, gd := dx.Data(), grad.Data()
	for o, idx := range p.argmax {
		dxd[idx] += gd[o]
	}
	return dx
}

func (p *MaxPool2) setArena(a *tensor.Arena) { p.arena = a }

// poolOne pools one example (xd → yd), recording flat argmax indices
// relative to the example into am.
func (p *MaxPool2) poolOne(xd, yd []float64, am []int) {
	oh, ow := p.OutH(), p.OutW()
	for c := 0; c < p.C; c++ {
		base := c * p.H * p.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + (2*oy)*p.W + 2*ox
				best := xd[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := base + (2*oy+dy)*p.W + (2*ox + dx)
						if xd[idx] > best {
							best = xd[idx]
							bestIdx = idx
						}
					}
				}
				o := (c*oh+oy)*ow + ox
				yd[o] = best
				am[o] = bestIdx
			}
		}
	}
}

// ForwardBatch pools a (B × C·H·W) batch, caching per-example argmaxes.
func (p *MaxPool2) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape()[0]
	if x.Shape()[1] != p.C*p.H*p.W {
		panic(fmt.Sprintf("nn: maxpool expects batch width %d, got %v", p.C*p.H*p.W, x.Shape()))
	}
	n, on := p.C*p.H*p.W, p.OutLen()
	p.yB = ensureBuf(p.arena, p.yB, b, on)
	if cap(p.argmaxB) < b*on {
		p.argmaxB = make([]int, b*on)
	}
	p.argmaxB = p.argmaxB[:b*on]
	xd, yd := x.Data(), p.yB.Data()
	for i := 0; i < b; i++ {
		p.poolOne(xd[i*n:(i+1)*n], yd[i*on:(i+1)*on], p.argmaxB[i*on:(i+1)*on])
	}
	return p.yB
}

// BackwardBatch routes each output gradient to its argmax input position.
func (p *MaxPool2) BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	b := grad.Shape()[0]
	n, on := p.C*p.H*p.W, p.OutLen()
	p.dxB = ensureBuf(p.arena, p.dxB, b, n)
	p.dxB.Zero()
	gd, dxd := grad.Data(), p.dxB.Data()
	for i := 0; i < b; i++ {
		am := p.argmaxB[i*on : (i+1)*on]
		dx := dxd[i*n : (i+1)*n]
		g := gd[i*on : (i+1)*on]
		for o, idx := range am {
			dx[idx] += g[o]
		}
	}
	return p.dxB
}

// AccumGrads is a no-op for parameter-free layers.
func (p *MaxPool2) AccumGrads() {}

// ExampleGrads is a no-op for parameter-free layers.
func (p *MaxPool2) ExampleGrads(i int, dst []*tensor.Tensor) {}

// Params returns nil: pooling is parameter-free.
func (p *MaxPool2) Params() []*tensor.Tensor { return nil }

// Grads returns nil: pooling is parameter-free.
func (p *MaxPool2) Grads() []*tensor.Tensor { return nil }

// ZeroGrads is a no-op for parameter-free layers.
func (p *MaxPool2) ZeroGrads() {}

// Name returns "maxpool2".
func (p *MaxPool2) Name() string { return "maxpool2" }

// Flatten reshapes (C,H,W) activations into a flat vector. Because tensors
// are stored flat, this is a logical marker layer with identity math; it
// exists so architecture specs read like the paper's model descriptions.
type Flatten struct{}

var _ Layer = (*Flatten)(nil)

// Forward returns a flat view of x.
func (Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(x.Data(), x.Len())
}

// Backward passes the gradient through unchanged.
func (Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

// ForwardBatch is the identity: batches are already stored row-flat.
func (Flatten) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return x }

// BackwardBatch passes the batch gradient through unchanged.
func (Flatten) BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	return grad
}

// AccumGrads is a no-op.
func (Flatten) AccumGrads() {}

// ExampleGrads is a no-op.
func (Flatten) ExampleGrads(i int, dst []*tensor.Tensor) {}

// Params returns nil.
func (Flatten) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (Flatten) Grads() []*tensor.Tensor { return nil }

// ZeroGrads is a no-op.
func (Flatten) ZeroGrads() {}

// Name returns "flatten".
func (Flatten) Name() string { return "flatten" }
