package fl

import "fedcdp/internal/tensor"

// SparseTensorWire is the sparse gob wire form of a tensor: its shape
// plus the flat positions and values of the nonzero entries. DSSGD and
// top-k-compressed strategies zero all but a small fraction of the
// update before sharing; shipping only the surviving coordinates cuts
// wire bytes roughly by 1/(2·density) relative to the dense encoding
// (each nonzero costs an index and a value instead of one value per
// entry). Indices may appear in any order; out-of-range indices are
// ignored on decode rather than trusted (a malformed peer must not be
// able to crash the server).
type SparseTensorWire struct {
	Shape   []int
	Indices []int32
	Values  []float64
}

// SparseFromTensors converts tensors to sparse wire form (copying data).
func SparseFromTensors(ts []*tensor.Tensor) []SparseTensorWire {
	out := make([]SparseTensorWire, len(ts))
	for i, t := range ts {
		w := SparseTensorWire{Shape: append([]int(nil), t.Shape()...)}
		for j, v := range t.Data() {
			if v != 0 {
				w.Indices = append(w.Indices, int32(j))
				w.Values = append(w.Values, v)
			}
		}
		out[i] = w
	}
	return out
}

// TensorsFromSparse converts sparse wire tensors back to dense
// *tensor.Tensor, scattering values into a zeroed tensor of the declared
// shape. Indices may arrive in any order; indices outside the tensor and
// surplus values (or indices without a paired value) are ignored.
func TensorsFromSparse(ws []SparseTensorWire) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		t := tensor.New(w.Shape...)
		data := t.Data()
		n := len(w.Indices)
		if len(w.Values) < n {
			n = len(w.Values)
		}
		for j := 0; j < n; j++ {
			if idx := int(w.Indices[j]); idx >= 0 && idx < len(data) {
				data[idx] = w.Values[j]
			}
		}
		out[i] = t
	}
	return out
}

// sparseWorthwhile reports whether the sparse encoding of ts is smaller
// than the dense one: each nonzero costs an index plus a value against
// one value per entry dense, so sparse wins below ~50% density.
func sparseWorthwhile(ts []*tensor.Tensor) bool {
	var total, nnz int
	for _, t := range ts {
		total += t.Len()
		for _, v := range t.Data() {
			if v != 0 {
				nnz++
			}
		}
	}
	return nnz*2 < total
}

// EncodeUpdate picks the smaller wire encoding for an update: exactly one
// of the returned slices is non-nil — dense TensorWire for dense updates,
// SparseTensorWire when more than half the coordinates are zero.
func EncodeUpdate(ts []*tensor.Tensor) (dense []TensorWire, sparse []SparseTensorWire) {
	if sparseWorthwhile(ts) {
		return nil, SparseFromTensors(ts)
	}
	return WireFromTensors(ts), nil
}
