package fl

import (
	"errors"
	"fmt"
)

// The binary update encoders from wire structs. No session writes a
// prebuilt message — clients write their tensors (WriteUpdateTensors),
// edges their accumulators (WritePartial) — so these are test-only: the
// oracle appendPartialDirect's bytes are diffed against, and the source of
// FuzzBinaryDecode's seeds.

// writeUpdate sends a prebuilt update message over a session: the gob
// session encodes the struct, the binary one frames appendUpdatePayload.
func writeUpdate(s wireSession, m *UpdateMsg) error {
	switch s := s.(type) {
	case *gobSession:
		return s.enc.Encode(m)
	case *binarySession:
		bp := beginFrame(kindUpdate)
		*bp = appendUpdatePayload(*bp, m)
		return s.endFrame(bp)
	}
	panic(fmt.Sprintf("fl: no update writer for %T", s))
}

// appendUpdatePayload writes an update frame's payload from m's wire forms.
func appendUpdatePayload(b []byte, m *UpdateMsg) []byte {
	b = appendI64(b, int64(m.ClientID))
	b = appendI64(b, int64(m.Round))
	b = appendF64(b, m.Weight)
	switch {
	case m.partial != nil:
		b = appendI64(b, partialSentinel)
		return appendPartialDirect(b, m.partial)
	case m.Partial != nil:
		b = appendI64(b, partialSentinel)
		return appendPartial(b, m.Partial)
	}
	return appendUpdateSection(b, m)
}

// appendExactScalar writes one exact accumulator element: spec, sign,
// exponent, and the length-prefixed big-endian mantissa.
func appendExactScalar(b []byte, w ExactScalarWire) []byte {
	b = append(b, w.Spec, boolByte(w.Neg))
	b = appendI64(b, w.Exp)
	b = appendU32(b, uint32(len(w.Mant)))
	return append(b, w.Mant...)
}

// appendPartial writes an edge partial: rule, client count, optional
// weight sum, then the exact-sum tensors (rank, dims, per-element scalars).
func appendPartial(b []byte, p *PartialWire) []byte {
	b = appendStr(b, p.Rule)
	b = appendI64(b, int64(p.Clients))
	b = appendU8(b, boolByte(p.HasWSum))
	if p.HasWSum {
		b = appendExactScalar(b, p.WSum)
	}
	b = appendI64(b, int64(len(p.Sums)))
	for _, t := range p.Sums {
		b = appendU8(b, byte(len(t.Shape)))
		for _, d := range t.Shape {
			b = appendI64(b, int64(d))
		}
		for _, e := range t.Elems {
			b = appendExactScalar(b, e)
		}
	}
	return b
}

// appendUpdateSection writes an update's tensor section from its wire forms
// (whichever of dense/sparse the message carries).
func appendUpdateSection(b []byte, m *UpdateMsg) []byte {
	b = appendI64(b, int64(len(m.Delta)+len(m.Sparse)))
	for _, w := range m.Delta {
		b = appendTensorHeader(b, encDense, w.Shape)
		b = appendF64s(b, w.Data)
	}
	for _, w := range m.Sparse {
		b = appendTensorHeader(b, encSparse, w.Shape)
		b = appendI64(b, int64(len(w.Indices)))
		b = appendI32s(b, w.Indices)
		b = appendF64s(b, w.Values)
	}
	return b
}

// The binary partial parser as it stood before partials decoded in place:
// one wire struct per scalar, validated afterwards by PartialWire.Validate
// and installed by PartialFromWire. It is the oracle the in-place parser
// (readPartialInto) is diffed against, in FuzzBinaryDecode and the direct
// partial tests.

// parseExactScalar is appendExactScalar's bounds-checked inverse.
func parseExactScalar(r *wireReader) ExactScalarWire {
	w := ExactScalarWire{Spec: r.u8(), Neg: r.u8() != 0, Exp: r.i64()}
	n := r.u32()
	if n > exactMantBytes {
		r.fail("fl: exact mantissa of %d bytes exceeds %d", n, exactMantBytes)
		return w
	}
	if raw := r.take(int(n)); raw != nil {
		w.Mant = append([]byte(nil), raw...)
	}
	return w
}

// parsePartial is appendPartial's bounds-checked inverse; semantic
// validation (rule, counts, scalar envelope) stays with PartialWire.Validate.
// Its element slices grow with the scalars parsed, so a fuzzed frame that
// declares 2^26 elements costs what it carries; what it accepts is what the
// pre-in-place parser accepted.
func parsePartial(r *wireReader) (*PartialWire, error) {
	p := &PartialWire{Rule: r.str(""), Clients: int(r.i64())}
	if r.u8() != 0 {
		p.HasWSum = true
		p.WSum = parseExactScalar(r)
	}
	count := r.i64()
	if r.err != nil {
		return nil, r.err
	}
	if count < 0 || count > maxWireTensors {
		return nil, fmt.Errorf("fl: binary partial declares %d tensors (cap %d)", count, maxWireTensors)
	}
	for i := int64(0); i < count; i++ {
		rank := int(r.u8())
		if rank > maxWireDims {
			return nil, fmt.Errorf("fl: binary partial tensor rank %d exceeds %d", rank, maxWireDims)
		}
		shape := make([]int, rank)
		for j := range shape {
			d := r.i64()
			if d < 0 || d > maxWireElems {
				return nil, fmt.Errorf("fl: binary partial dimension %d outside [0, %d]", d, maxWireElems)
			}
			shape[j] = int(d)
		}
		if r.err != nil {
			return nil, r.err
		}
		n, err := validShapeLen(shape)
		if err != nil {
			return nil, err
		}
		elems := make([]ExactScalarWire, 0, min(n, 1024))
		for j := 0; j < n; j++ {
			elems = append(elems, parseExactScalar(r))
			if r.err != nil {
				return nil, r.err
			}
		}
		p.Sums = append(p.Sums, ExactTensorWire{Shape: shape, Elems: elems})
	}
	return p, r.err
}

// errNotPartial marks a payload that is not a partial update.
var errNotPartial = errors.New("not a partial payload")

// oraclePartialUpdate parses an update payload carrying a partial the old
// way, into the gob body UpdateMsg.Partial; errNotPartial when the payload
// does not open as one.
func oraclePartialUpdate(b []byte) (*UpdateMsg, error) {
	r := wireReader{b: b}
	m := &UpdateMsg{ClientID: int(r.i64()), Round: int(r.i64()), Weight: r.f64()}
	if r.i64() != partialSentinel || r.err != nil {
		return nil, errNotPartial
	}
	p, err := parsePartial(&r)
	if err != nil {
		return nil, err
	}
	m.Partial = p
	return m, r.done()
}
