package fl

import (
	"fmt"
	"math"
	"sync"

	"fedcdp/internal/tensor"
)

// Update quantization kernel: each tensor is scaled by maxAbs/qmax and
// rounded to int8 or int16 codes, and QuantState keeps the per-tensor
// rounding error to add back into the next update before quantizing (error
// feedback). Updates cross the wire exact — no codec, session or client
// option applies this — so the kernel has no runtime caller; it is bound by
// benchmark/probes.go until ROADMAP 2(a).

// Quantization widths accepted by QuantizeUpdate.
const (
	QuantInt8  = 8
	QuantInt16 = 16
)

// QuantTensorWire is the quantized form of a tensor: per-tensor scale plus
// rounded integer codes of width Bits (8 or 16), held in int16 either way.
// Dequantize reconstructs q·Scale.
type QuantTensorWire struct {
	Shape []int
	Bits  int
	Scale float64
	Q     []int16
}

// qmax returns the largest code magnitude for a width.
func qmax(bits int) float64 {
	if bits == QuantInt8 {
		return 127
	}
	return 32767
}

// Dequantize reconstructs the dense wire tensor q·Scale.
func (w QuantTensorWire) Dequantize() TensorWire {
	data := make([]float64, len(w.Q))
	for i, q := range w.Q {
		data[i] = float64(q) * w.Scale
	}
	return TensorWire{Shape: append([]int(nil), w.Shape...), Data: data}
}

// QuantState carries error-feedback residuals across rounds: the rounding
// error of round r's quantization is added to round r+1's update before
// quantizing. Safe for concurrent use; the zero value is ready (nil is also
// accepted and means no error feedback). No runtime caller; bound by
// benchmark/probes.go until ROADMAP 2(a).
type QuantState struct {
	mu       sync.Mutex
	residual [][]float64
}

// QuantizeUpdate converts a dense update to quantized form at the given
// width, folding in (and refreshing) st's error-feedback residuals when st is
// non-nil. The input tensors are not modified. No runtime caller; bound by
// benchmark/probes.go until ROADMAP 2(a).
func QuantizeUpdate(ts []*tensor.Tensor, bits int, st *QuantState) []QuantTensorWire {
	if bits != QuantInt8 && bits != QuantInt16 {
		panic(fmt.Sprintf("fl: quantization width %d bits not in {8, 16}", bits))
	}
	var res [][]float64
	if st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		if len(st.residual) != len(ts) {
			st.residual = make([][]float64, len(ts))
		}
		res = st.residual
	}
	m := qmax(bits)
	out := make([]QuantTensorWire, len(ts))
	for i, t := range ts {
		data := t.Data()
		w := QuantTensorWire{
			Shape: append([]int(nil), t.Shape()...),
			Bits:  bits,
			Q:     make([]int16, len(data)),
		}
		var e []float64
		if res != nil {
			if len(res[i]) != len(data) {
				res[i] = make([]float64, len(data))
			}
			e = res[i]
		}
		// Pass 1: the scale is maxAbs of the residual-corrected update.
		var maxAbs float64
		for j, v := range data {
			if e != nil {
				v += e[j]
			}
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			// All-zero tensor: zero scale, zero codes, residual unchanged.
			out[i] = w
			continue
		}
		w.Scale = maxAbs / m
		// Pass 2: round, clamp, and bank the rounding error.
		for j, v := range data {
			if e != nil {
				v += e[j]
			}
			q := math.RoundToEven(v / w.Scale)
			if q > m {
				q = m
			} else if q < -m {
				q = -m
			}
			w.Q[j] = int16(q)
			if e != nil {
				e[j] = v - float64(q*w.Scale)
			}
		}
		out[i] = w
	}
	return out
}
