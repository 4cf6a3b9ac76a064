package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"fedcdp/internal/tensor"
)

// LayerSpec describes one layer in a serializable architecture definition.
type LayerSpec struct {
	Kind string // "dense", "conv2d", "maxpool2", "flatten", or an activation kind
	// Dense fields.
	In, Out int
	// Conv / pool fields.
	InC, OutC, K, Stride, Pad, InH, InW int
}

// Spec is a full architecture definition, buildable into a Model.
type Spec struct {
	Layers []LayerSpec
}

// Build constructs a model from spec with weights initialized from rng.
func Build(spec Spec, rng *tensor.RNG) *Model {
	m := &Model{spec: spec}
	for _, ls := range spec.Layers {
		switch ls.Kind {
		case "dense":
			m.Layers = append(m.Layers, NewDense(ls.In, ls.Out, rng))
		case "conv2d":
			m.Layers = append(m.Layers, NewConv2D(ls.InC, ls.InH, ls.InW, ls.OutC, ls.K, ls.Stride, ls.Pad, rng))
		case "maxpool2":
			m.Layers = append(m.Layers, NewMaxPool2(ls.InC, ls.InH, ls.InW))
		case "flatten":
			m.Layers = append(m.Layers, Flatten{})
		case ActReLU, ActSigmoid, ActTanh:
			m.Layers = append(m.Layers, NewActivation(ls.Kind))
		default:
			panic(fmt.Sprintf("nn: unknown layer kind %q", ls.Kind))
		}
	}
	for _, l := range m.Layers {
		m.params = append(m.params, l.Params()...)
		m.grads = append(m.grads, l.Grads()...)
	}
	m.params = m.params[:len(m.params):len(m.params)]
	m.grads = m.grads[:len(m.grads):len(m.grads)]
	return m
}

// ImageCNN returns the paper's image model: two convolutional layers and one
// fully connected layer (Section VII), sized for (c,h,w) inputs and the
// given class count.
func ImageCNN(c, h, w, classes int) Spec {
	// conv1: 8 filters, 5x5, stride 2, pad 2 -> (8, ~h/2, ~w/2)
	h1 := (h+2*2-5)/2 + 1
	w1 := (w+2*2-5)/2 + 1
	// conv2: 16 filters, 5x5, stride 2, pad 2
	h2 := (h1+2*2-5)/2 + 1
	w2 := (w1+2*2-5)/2 + 1
	return Spec{Layers: []LayerSpec{
		{Kind: "conv2d", InC: c, InH: h, InW: w, OutC: 8, K: 5, Stride: 2, Pad: 2},
		{Kind: ActReLU},
		{Kind: "conv2d", InC: 8, InH: h1, InW: w1, OutC: 16, K: 5, Stride: 2, Pad: 2},
		{Kind: ActReLU},
		{Kind: "flatten"},
		{Kind: "dense", In: 16 * h2 * w2, Out: classes},
	}}
}

// TabularMLP returns the paper's attribute-data model: a fully connected
// network with two hidden layers (Section VII).
func TabularMLP(features, hidden, classes int) Spec {
	return Spec{Layers: []LayerSpec{
		{Kind: "dense", In: features, Out: hidden},
		{Kind: ActReLU},
		{Kind: "dense", In: hidden, Out: hidden},
		{Kind: ActReLU},
		{Kind: "dense", In: hidden, Out: classes},
	}}
}

// savedModel is the gob wire format for Save/Load.
type savedModel struct {
	Spec   Spec
	Params [][]float64
	Shapes [][]int
}

// Save writes the model architecture and weights to w using encoding/gob.
func (m *Model) Save(w io.Writer) error {
	sm := savedModel{Spec: m.spec}
	for _, p := range m.Params() {
		sm.Params = append(sm.Params, append([]float64(nil), p.Data()...))
		sm.Shapes = append(sm.Shapes, append([]int(nil), p.Shape()...))
	}
	if err := gob.NewEncoder(w).Encode(sm); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	m := Build(sm.Spec, tensor.NewRNG(0))
	params := m.Params()
	if len(params) != len(sm.Params) {
		return nil, fmt.Errorf("nn: saved model has %d parameter tensors, architecture wants %d", len(sm.Params), len(params))
	}
	for i, p := range params {
		if p.Len() != len(sm.Params[i]) {
			return nil, fmt.Errorf("nn: parameter %d length mismatch: saved %d, want %d", i, len(sm.Params[i]), p.Len())
		}
		copy(p.Data(), sm.Params[i])
	}
	return m, nil
}

// Marshal serializes the model to bytes (gob).
func (m *Model) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes a model from bytes produced by Marshal.
func Unmarshal(b []byte) (*Model, error) {
	return Load(bytes.NewReader(b))
}
