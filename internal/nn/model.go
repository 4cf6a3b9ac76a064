package nn

import (
	"fmt"

	"fedcdp/internal/tensor"
)

// Model is an ordered stack of layers trained with softmax cross-entropy.
type Model struct {
	Layers []Layer
	spec   Spec

	// params and grads are what Params and Grads return, gathered once at
	// Build.
	params, grads []*tensor.Tensor

	// Batched-engine scratch (see batch.go): input batch, loss gradient and
	// per-example losses, reused across iterations; arena is the optional
	// per-goroutine buffer recycler set by UseArena.
	arena    *tensor.Arena
	xBatch   *tensor.Tensor
	lossGrad *tensor.Tensor
	lossVals []float64
}

// Forward runs one example through all layers and returns the logits.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// BackwardFromLoss propagates the logit gradient through all layers,
// accumulating parameter gradients, and returns the input gradient.
func (m *Model) BackwardFromLoss(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// ExampleGradient runs a full forward/backward pass for one labelled example
// with freshly zeroed buffers, returning the loss and the per-example
// gradient (deep-copied, aligned with Params).
func (m *Model) ExampleGradient(x *tensor.Tensor, label int) (float64, []*tensor.Tensor) {
	m.ZeroGrads()
	logits := m.Forward(x)
	loss, g := SoftmaxCrossEntropy(logits, label)
	m.BackwardFromLoss(g)
	return loss, tensor.CloneAll(m.Grads())
}

// Loss computes the cross-entropy of one example without touching gradients.
func (m *Model) Loss(x *tensor.Tensor, label int) float64 {
	logits := m.Forward(x)
	loss, _ := SoftmaxCrossEntropy(logits, label)
	return loss
}

// Predict returns the argmax class for one example.
func (m *Model) Predict(x *tensor.Tensor) int {
	return Argmax(m.Forward(x))
}

// Params returns all trainable tensors in layer order. The slice is the
// model's own, built once: callers must not modify it (its capacity ends at
// its length, so an append copies).
func (m *Model) Params() []*tensor.Tensor { return m.params }

// Grads returns all gradient buffers in layer order, aligned with Params;
// the model's own slice, like Params.
func (m *Model) Grads() []*tensor.Tensor { return m.grads }

// ZeroGrads clears every gradient buffer.
func (m *Model) ZeroGrads() {
	for _, l := range m.Layers {
		l.ZeroGrads()
	}
}

// NumParams returns the total number of trainable scalars.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Len()
	}
	return n
}

// SetParams copies src values into the model's parameters.
func (m *Model) SetParams(src []*tensor.Tensor) {
	dst := m.Params()
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: SetParams tensor count mismatch %d vs %d", len(dst), len(src)))
	}
	for i, p := range dst {
		p.CopyFrom(src[i])
	}
}

// Clone returns a deep copy of the model (architecture and weights).
func (m *Model) Clone() *Model {
	c := Build(m.spec, tensor.NewRNG(0))
	c.SetParams(m.Params())
	return c
}

// Spec returns the architecture specification the model was built from.
func (m *Model) Spec() Spec { return m.spec }

// SGDStep applies one vanilla gradient-descent step with the given learning
// rate using externally supplied gradients aligned with Params.
func (m *Model) SGDStep(lr float64, grads []*tensor.Tensor) {
	params := m.Params()
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: SGDStep tensor count mismatch %d vs %d", len(params), len(grads)))
	}
	for i, p := range params {
		p.AddScaled(-lr, grads[i])
	}
}
