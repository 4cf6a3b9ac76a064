package fl

import (
	"fmt"
	"math"

	"fedcdp/internal/tensor"
)

// Wire-message validation: everything that crosses a connection is hostile
// until proven otherwise. The gob layer guarantees well-formed Go values,
// not sane ones — a peer can send a shape whose product overflows int, a
// payload length that disagrees with its shape, NaN/Inf values that would
// poison every parameter at the fold, or sparse indices outside the
// tensor. Decode paths on the protocol (server folding client updates,
// client installing server parameters) go through DecodeTensors /
// Validate, which reject all of that with an error instead of a panic or a
// silent corruption; the raw converters (TensorsFromWire,
// TensorsFromSparse) remain for trusted in-process use. The fuzz targets
// in fuzz_test.go pin the no-panic contract.

const (
	// maxWireDims bounds the rank of a wire tensor (real models use ≤ 4).
	maxWireDims = 16
	// maxWireElems bounds one wire tensor's element count (2^26 float64s =
	// 512 MiB): large enough for any model here, small enough that a
	// hostile length cannot balloon server memory.
	maxWireElems = 1 << 26
)

// validShapeLen returns the element count of a wire shape, rejecting
// negative dimensions, excessive rank and overflowing products.
func validShapeLen(shape []int) (int, error) {
	if len(shape) > maxWireDims {
		return 0, fmt.Errorf("fl: wire tensor rank %d exceeds %d", len(shape), maxWireDims)
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("fl: negative wire dimension %d in %v", d, shape)
		}
		if d > 0 && n > maxWireElems/d {
			return 0, fmt.Errorf("fl: wire shape %v exceeds %d elements", shape, maxWireElems)
		}
		n *= d
	}
	return n, nil
}

// validValues rejects non-finite payloads: one NaN folded into the global
// model poisons every parameter it touches, forever.
func validValues(vs []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fl: non-finite wire value %v at offset %d", v, i)
		}
	}
	return nil
}

// Validate reports whether the dense wire tensor is structurally sound:
// shape and payload length agree, dimensions are sane, values finite.
func (w TensorWire) Validate() error {
	n, err := validShapeLen(w.Shape)
	if err != nil {
		return err
	}
	if len(w.Data) != n {
		return fmt.Errorf("fl: wire payload length %d does not match shape %v (want %d)", len(w.Data), w.Shape, n)
	}
	return validValues(w.Data)
}

// Validate reports whether the sparse wire tensor is structurally sound:
// sane shape, aligned index/value slices, in-range indices, finite values.
func (w SparseTensorWire) Validate() error {
	n, err := validShapeLen(w.Shape)
	if err != nil {
		return err
	}
	if len(w.Indices) != len(w.Values) {
		return fmt.Errorf("fl: sparse wire has %d indices but %d values", len(w.Indices), len(w.Values))
	}
	if len(w.Indices) > n {
		return fmt.Errorf("fl: sparse wire carries %d entries for a %d-element tensor", len(w.Indices), n)
	}
	for i, idx := range w.Indices {
		if idx < 0 || int(idx) >= n {
			return fmt.Errorf("fl: sparse index %d outside tensor of %d elements (entry %d)", idx, n, i)
		}
	}
	return validValues(w.Values)
}

// Validate reports whether the update message is structurally sound:
// exactly one payload encoding, every tensor valid, finite weight and
// non-negative identifiers.
func (m *UpdateMsg) Validate() error {
	switch {
	case m.Round < 0:
		return fmt.Errorf("fl: negative update round %d", m.Round)
	case m.ClientID < 0:
		return fmt.Errorf("fl: negative client id %d", m.ClientID)
	case math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) || m.Weight < 0:
		return fmt.Errorf("fl: invalid update weight %v", m.Weight)
	}
	encodings := 0
	for _, set := range [...]bool{len(m.Delta) > 0, len(m.Sparse) > 0, m.Partial != nil, m.partial != nil} {
		if set {
			encodings++
		}
	}
	if encodings != 1 {
		if encodings == 0 {
			return fmt.Errorf("fl: update carries no payload")
		}
		return fmt.Errorf("fl: update mixes payload encodings")
	}
	if m.partial != nil {
		return nil // the binary parser validated it scalar by scalar
	}
	if m.Partial != nil {
		return m.Partial.Validate()
	}
	for i, w := range m.Delta {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fl: update tensor %d: %w", i, err)
		}
	}
	for i, w := range m.Sparse {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fl: update tensor %d: %w", i, err)
		}
	}
	return nil
}

// DecodeTensors is Tensors with the wire validated first — the entry point
// for payloads that crossed a connection. It never panics on hostile
// input.
func (m *UpdateMsg) DecodeTensors() ([]*tensor.Tensor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m.Tensors(), nil
}

// Validate reports whether the round announcement is structurally sound. A
// denial carries no round payload and is always valid; an announcement
// must carry valid parameters and a trainable round config (a hostile
// server must not be able to drive a client into a zero-batch loop or a
// NaN learning rate).
func (m *ParamMsg) Validate() error {
	if m.Denied {
		return nil
	}
	switch {
	case m.Round < 0:
		return fmt.Errorf("fl: negative announced round %d", m.Round)
	case m.Cfg.BatchSize <= 0 || m.Cfg.BatchSize > 1<<20:
		return fmt.Errorf("fl: announced batch size %d outside (0, 2^20]", m.Cfg.BatchSize)
	case m.Cfg.LocalIters <= 0 || m.Cfg.LocalIters > 1<<20:
		return fmt.Errorf("fl: announced local iterations %d outside (0, 2^20]", m.Cfg.LocalIters)
	case math.IsNaN(m.Cfg.LR) || math.IsInf(m.Cfg.LR, 0) || m.Cfg.LR <= 0:
		return fmt.Errorf("fl: announced learning rate %v not positive and finite", m.Cfg.LR)
	case len(m.Params) == 0:
		return fmt.Errorf("fl: announcement carries no parameters")
	}
	for i, w := range m.Params {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fl: announced parameter %d: %w", i, err)
		}
	}
	if _, err := m.Cfg.Scenario.Partitioner(); err != nil {
		return err
	}
	return nil
}

// updateMatchesParams reports whether a decoded update is foldable against
// the round's announced parameters: same tensor count and per-tensor
// element count. Folding a mismatched update would index out of range
// inside the aggregator — a hostile client must get an error, not a server
// panic.
func updateMatchesParams(update []*tensor.Tensor, params []TensorWire) error {
	if len(update) != len(params) {
		return fmt.Errorf("fl: update has %d tensors, round has %d", len(update), len(params))
	}
	for i, u := range update {
		if u.Len() != len(params[i].Data) {
			return fmt.Errorf("fl: update tensor %d has %d elements, parameter has %d", i, u.Len(), len(params[i].Data))
		}
	}
	return nil
}

// partialMatchesParams is updateMatchesParams for an edge's partial fold:
// the exact sums must be foldable against the round's parameters before
// they reach the root aggregator.
func partialMatchesParams(p *Partial, params []TensorWire) error {
	if len(p.Sums) != len(params) {
		return fmt.Errorf("fl: partial has %d tensors, round has %d", len(p.Sums), len(params))
	}
	for i, s := range p.Sums {
		if s.Len() != len(params[i].Data) {
			return fmt.Errorf("fl: partial tensor %d has %d elements, parameter has %d", i, s.Len(), len(params[i].Data))
		}
	}
	return nil
}

// decodePartial is DecodeTensors for an edge's partial fold, checked
// against the round's parameters: the partial the binary codec validated
// while parsing, or gob's wire body, installed by PartialFromWire.
func (m *UpdateMsg) decodePartial(params []TensorWire) (*Partial, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := m.partial
	if p == nil {
		var err error
		if p, err = PartialFromWire(m.Partial); err != nil {
			return nil, err
		}
	}
	if err := partialMatchesParams(p, params); err != nil {
		return nil, err
	}
	return p, nil
}
