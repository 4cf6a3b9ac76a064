package fl

import (
	"errors"
	"fmt"
)

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
