package nn

import (
	"fmt"
	"math"

	"fedcdp/internal/tensor"
)

// This file is the batched execution engine. Every Layer processes a whole
// mini-batch per call — Dense as one GEMM, Conv2D as im2col + GEMM — instead
// of one example at a time, while still exposing every example's parameter
// gradient, which Fed-CDP's per-example clipping and noising requires. The
// per-example Forward/Backward path is kept as the reference implementation;
// parity tests in batch_test.go pin the two to each other. See DESIGN.md
// ("Execution engine").
//
// Batches are row-major (B × featureLen) tensors: row i is example i's
// flattened input. The contract per iteration is
//
//	ForwardBatch → (loss grads) → BackwardBatch → AccumGrads | ExampleGrads
//
// BackwardBatch deliberately does NOT touch the Grads buffers: the
// non-private path pays for one batch-summed GEMM (AccumGrads) and the
// Fed-CDP path pays only for the per-example recovery it needs
// (ExampleGrads), never both.

// arenaLayer is implemented by batched layers that can draw their scratch
// buffers from a caller-owned arena.
type arenaLayer interface{ setArena(*tensor.Arena) }

// ensureBuf returns t when it already has the wanted (rows × cols) shape
// (no allocation — the steady-state path), reshapes it via View when only
// the shape differs, and otherwise draws a fresh zeroed buffer from the
// arena, releasing the old one. Batched layers use it so buffers are
// allocated once per batch geometry and reused across iterations and
// rounds.
func ensureBuf(a *tensor.Arena, t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t != nil {
		if s := t.Shape(); len(s) == 2 && s[0] == rows && s[1] == cols {
			return t
		}
		if t.Len() == rows*cols {
			return t.View(rows, cols)
		}
	}
	a.Put(t)
	return a.Get(rows, cols)
}

// UseArena routes the model's batched scratch buffers (and those of its
// layers) through a — one arena per goroutine, reusable across rounds.
func (m *Model) UseArena(a *tensor.Arena) {
	m.arena = a
	for _, l := range m.Layers {
		if al, ok := l.(arenaLayer); ok {
			al.setArena(a)
		}
	}
}

// ForwardBatch runs a (B × features) batch through all layers and returns
// the (B × classes) logits.
func (m *Model) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.ForwardBatch(x)
	}
	return x
}

// BackwardBatch propagates a (B × classes) logit gradient through all
// layers and returns the (B × features) input gradient. Parameter gradient
// buffers are not modified; use AccumBatchGrads or ExampleGrads.
func (m *Model) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	return m.backwardBatch(grad, true)
}

// backwardBatch is BackwardBatch; without needDx the first layer caches
// its output gradient and computes no input gradient, and nil is returned.
func (m *Model) backwardBatch(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].BackwardBatch(grad, needDx || i > 0)
	}
	return grad
}

// AccumBatchGrads adds the batch-summed parameter gradients of the most
// recent BackwardBatch into the model's Grads buffers.
func (m *Model) AccumBatchGrads() {
	for _, l := range m.Layers {
		l.AccumGrads()
	}
}

// ExampleGrads recovers example i's parameter gradients from the most
// recent BackwardBatch into dst, which must be aligned with Grads (e.g.
// tensor.ZerosLike(m.Grads())). Entries are overwritten.
func (m *Model) ExampleGrads(i int, dst []*tensor.Tensor) {
	off := 0
	for _, l := range m.Layers {
		n := len(l.Grads())
		l.ExampleGrads(i, dst[off:off+n])
		off += n
	}
}

// Stack copies the example vectors xs into a (len(xs) × featureLen) batch
// tensor. dst is reused when it already has the right element count;
// otherwise a buffer is drawn from the arena (nil arena allocates).
func Stack(a *tensor.Arena, dst *tensor.Tensor, xs []*tensor.Tensor) *tensor.Tensor {
	if len(xs) == 0 {
		panic("nn: Stack of empty batch")
	}
	n := xs[0].Len()
	dst = ensureBuf(a, dst, len(xs), n)
	dd := dst.Data()
	for i, x := range xs {
		if x.Len() != n {
			panic(fmt.Sprintf("nn: Stack example %d has length %d, want %d", i, x.Len(), n))
		}
		copy(dd[i*n:(i+1)*n], x.Data())
	}
	return dst
}

// SoftmaxCrossEntropyBatch computes per-example cross-entropy losses and the
// logit gradients (softmax − onehot) for a (B × C) logit batch. grad must be
// (B × C) and is overwritten; losses must have length B. Row i reproduces
// SoftmaxCrossEntropy(logits.Row(i), labels[i]) exactly.
func SoftmaxCrossEntropyBatch(grad *tensor.Tensor, losses []float64, logits *tensor.Tensor, labels []int) {
	b, c := logits.Shape()[0], logits.Shape()[1]
	if len(labels) != b || len(losses) != b {
		panic(fmt.Sprintf("nn: batch loss wants %d labels/losses, got %d/%d", b, len(labels), len(losses)))
	}
	if grad.Shape()[0] != b || grad.Shape()[1] != c {
		panic(fmt.Sprintf("nn: batch loss grad shape %v, want (%d,%d)", grad.Shape(), b, c))
	}
	ld, gd := logits.Data(), grad.Data()
	for i := 0; i < b; i++ {
		label := labels[i]
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, c))
		}
		row := ld[i*c : (i+1)*c]
		out := gd[i*c : (i+1)*c]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			out[j] = e
			sum += e
		}
		for j := range out {
			out[j] /= sum
		}
		pl := out[label]
		if pl < 1e-300 {
			pl = 1e-300
		}
		losses[i] = -math.Log(pl)
		out[label] -= 1
	}
}

// ArgmaxRows returns the per-row argmax of a (B × C) tensor, writing into
// out when it has capacity.
func ArgmaxRows(t *tensor.Tensor, out []int) []int {
	b, c := t.Shape()[0], t.Shape()[1]
	if cap(out) < b {
		out = make([]int, b)
	}
	out = out[:b]
	d := t.Data()
	for i := 0; i < b; i++ {
		row := d[i*c : (i+1)*c]
		best, bestIdx := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best = v
				bestIdx = j
			}
		}
		out[i] = bestIdx
	}
	return out
}

// BatchPass runs one batched forward/backward pass over a labelled batch
// through the model-owned scratch buffers and returns the mean loss. After
// it returns, layer caches hold what AccumBatchGrads/ExampleGrads need;
// ExampleGrads may then be called concurrently for distinct examples (see
// Layer), which is how the parallel sanitization pipeline recovers a
// whole mini-batch's gradients across goroutines. The first layer computes
// no input gradient: nothing in training reads it.
func (m *Model) BatchPass(xs []*tensor.Tensor, ys []int) float64 {
	m.xBatch = Stack(m.arena, m.xBatch, xs)
	return m.BatchPassOn(m.xBatch, ys)
}

// BatchPassOn is BatchPass over a (B × features) batch matrix the caller
// filled (dataset.ClientData.BatchInto writes one), so nothing is stacked.
// The layers read x until the batch's gradients are recovered.
func (m *Model) BatchPassOn(x *tensor.Tensor, ys []int) float64 {
	b := x.Shape()[0]
	logits := m.ForwardBatch(x)
	m.lossGrad = ensureBuf(m.arena, m.lossGrad, logits.Shape()[0], logits.Shape()[1])
	if cap(m.lossVals) < b {
		m.lossVals = make([]float64, b)
	}
	losses := m.lossVals[:b]
	SoftmaxCrossEntropyBatch(m.lossGrad, losses, logits, ys)
	m.backwardBatch(m.lossGrad, false)
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(b)
}

// PredictBatch classifies a slice of examples with the batched engine.
func (m *Model) PredictBatch(xs []*tensor.Tensor) []int {
	out := make([]int, len(xs))
	if len(xs) == 0 {
		return out
	}
	m.xBatch = Stack(m.arena, m.xBatch, xs)
	logits := m.ForwardBatch(m.xBatch)
	return ArgmaxRows(logits, out)
}
