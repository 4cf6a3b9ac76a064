package nn

import (
	"fmt"

	"fedcdp/internal/tensor"
)

// Layer is a differentiable module with two execution paths over the same
// parameters. Per example (the reference path): Forward consumes one example
// and returns its activation; Backward consumes dLoss/dOutput and returns
// dLoss/dInput, accumulating parameter gradients (if any) into the layer's
// Grads buffers. Per mini-batch (the engine training runs on, see batch.go):
// ForwardBatch → BackwardBatch → AccumGrads | ExampleGrads.
type Layer interface {
	// Forward computes the layer output for a single example.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward computes the input gradient for the most recent Forward call
	// and accumulates parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// ForwardBatch computes outputs for a (B × inLen) batch, returning a
	// (B × outLen) tensor owned by the layer (valid until the next call).
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
	// BackwardBatch caches what per-example or batch gradient recovery
	// needs from a (B × outLen) output gradient and, when needDx is set,
	// returns the (B × inLen) input gradient; otherwise it returns nil
	// (the first layer's input gradient is read by no one in training).
	// It does not modify Grads.
	BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor
	// AccumGrads adds the batch-summed parameter gradients of the most
	// recent BackwardBatch into the layer's Grads buffers.
	AccumGrads()
	// ExampleGrads writes example i's parameter gradients from the most
	// recent BackwardBatch into dst (aligned with Grads, overwritten).
	// Recovery only reads the batch caches, so concurrent calls with
	// distinct i and distinct dst are safe — the contract the parallel
	// sanitization pipeline (dp.SanitizeBatch) relies on.
	ExampleGrads(i int, dst []*tensor.Tensor)
	// Params returns the layer's trainable tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient buffers aligned with Params.
	Grads() []*tensor.Tensor
	// ZeroGrads resets all gradient buffers.
	ZeroGrads()
	// Name identifies the layer kind for diagnostics and serialization.
	Name() string
}

// Activation kinds implemented by the element-wise activation layer.
const (
	ActReLU    = "relu"
	ActSigmoid = "sigmoid"
	ActTanh    = "tanh"
)

// Activation is a stateless element-wise nonlinearity layer.
type Activation struct {
	Kind string
	in   *tensor.Tensor
	out  *tensor.Tensor

	// Batched-engine state: cached input batch and owned buffers.
	arena *tensor.Arena
	inB   *tensor.Tensor
	outB  *tensor.Tensor
	dxB   *tensor.Tensor
}

// NewActivation returns an activation layer of the given kind.
// It panics on an unknown kind so that misconfigured models fail at build
// time rather than mid-training.
func NewActivation(kind string) *Activation {
	switch kind {
	case ActReLU, ActSigmoid, ActTanh:
		return &Activation{Kind: kind}
	}
	panic(fmt.Sprintf("nn: unknown activation %q", kind))
}

var _ Layer = (*Activation)(nil)

// applyKind writes kind(x) element-wise into d (d already holds x's values).
func applyKind(kind string, d []float64) {
	switch kind {
	case ActReLU:
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range d {
			d[i] = sigmoid(v)
		}
	case ActTanh:
		for i, v := range d {
			d[i] = tanh(v)
		}
	}
}

// applyKindGrad multiplies the upstream gradient gd by the activation
// derivative, given the cached input (in) and output (od) values.
func applyKindGrad(kind string, gd, in, od []float64) {
	switch kind {
	case ActReLU:
		for i := range gd {
			if in[i] <= 0 {
				gd[i] = 0
			}
		}
	case ActSigmoid:
		for i := range gd {
			gd[i] *= od[i] * (1 - od[i])
		}
	case ActTanh:
		for i := range gd {
			gd[i] *= 1 - float64(od[i]*od[i])
		}
	}
}

// Forward applies the nonlinearity element-wise.
func (a *Activation) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.in = x
	out := x.Clone()
	applyKind(a.Kind, out.Data())
	a.out = out
	return out
}

// Backward multiplies the upstream gradient by the activation derivative.
func (a *Activation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	applyKindGrad(a.Kind, out.Data(), a.in.Data(), a.out.Data())
	return out
}

func (a *Activation) setArena(ar *tensor.Arena) { a.arena = ar }

// ForwardBatch applies the nonlinearity to a whole batch in one sweep.
func (a *Activation) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	a.inB = x
	a.outB = ensureBuf(a.arena, a.outB, x.Shape()[0], x.Shape()[1])
	copy(a.outB.Data(), x.Data())
	applyKind(a.Kind, a.outB.Data())
	return a.outB
}

// BackwardBatch multiplies the batch gradient by the activation derivative.
func (a *Activation) BackwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	a.dxB = ensureBuf(a.arena, a.dxB, grad.Shape()[0], grad.Shape()[1])
	copy(a.dxB.Data(), grad.Data())
	applyKindGrad(a.Kind, a.dxB.Data(), a.inB.Data(), a.outB.Data())
	return a.dxB
}

// AccumGrads is a no-op for parameter-free layers.
func (a *Activation) AccumGrads() {}

// ExampleGrads is a no-op for parameter-free layers.
func (a *Activation) ExampleGrads(i int, dst []*tensor.Tensor) {}

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []*tensor.Tensor { return nil }

// Grads returns nil: activations are parameter-free.
func (a *Activation) Grads() []*tensor.Tensor { return nil }

// ZeroGrads is a no-op for parameter-free layers.
func (a *Activation) ZeroGrads() {}

// Name returns the activation kind.
func (a *Activation) Name() string { return a.Kind }

func sigmoid(x float64) float64 {
	if x >= 0 {
		e := exp(-x)
		return 1 / (1 + e)
	}
	e := exp(x)
	return e / (1 + e)
}

func tanh(x float64) float64 {
	// tanh(x) = 2*sigmoid(2x) - 1, numerically stable for large |x|.
	return 2*sigmoid(2*x) - 1
}
