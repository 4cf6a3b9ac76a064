package fl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"fedcdp/internal/dataset"
	"fedcdp/internal/tensor"
)

// Binary wire codec. The gob protocol (rpc.go) is self-describing and
// reflection-driven: every session re-transmits type descriptors, and every
// float64 costs up to 9 bytes plus per-field overhead. This file adds a
// versioned, length-prefixed binary framing with raw little-endian float
// payloads — no reflection, no per-value varint packing, bulk
// math.Float64bits loops. gob remains the default and the parity oracle
// (codec_test.go pins bit-identical round-trips between the two).
//
// Frame layout (all integers little-endian):
//
//	magic   4 bytes  {0x00,'F','C','W'}
//	version u8       binaryVersion
//	kind    u8       param | update | ack
//	flags   u16      reserved, zero
//	length  u32      payload byte count (≤ maxFramePayload)
//	payload length bytes
//
// Nothing is negotiated: the codec is part of the experiment both ends were
// given, and each end speaks its own from the first byte. The magic begins
// with 0x00, which can never open a gob stream (gob prefixes every message
// with a nonzero uvarint byte count), so an end whose peer speaks the other
// codec knows it from the first byte it reads, and fails the session with
// an error naming both (codecMismatch).

// Wire codecs selectable via RoundServer.Codec, ClientOptions.Codec and
// core.Config.Codec. CodecGob ("" defaults to it) is the legacy
// self-describing encoding, kept as the parity oracle; CodecBinary is the
// framed binary encoding above.
const (
	CodecGob    = "gob"
	CodecBinary = "binary"
)

// ValidCodec reports whether c names a known wire codec ("" means gob).
func ValidCodec(c string) bool {
	return c == "" || c == CodecGob || c == CodecBinary
}

var binaryMagic = [4]byte{0x00, 'F', 'C', 'W'}

const (
	// binaryVersion 2 dropped two strings from the param payload, and 3 the
	// hello/helloAck frames (renumbering the kinds); an older peer is
	// refused by readFrame rather than misparsed.
	binaryVersion  = 3
	frameHeaderLen = 12
	// maxFramePayload bounds one frame (512 MiB) — the same ceiling a
	// hostile gob length prefix already enjoys; real frames are far
	// smaller (maxWireTensors × maxWireElems is gated per tensor anyway).
	maxFramePayload = 1 << 29
	// maxWireTensors bounds the tensor count of one message section (real
	// models carry well under a hundred parameter tensors).
	maxWireTensors = 4096
)

// Frame kinds.
const (
	kindParam byte = iota + 1
	kindUpdate
	kindAck
)

// Per-tensor payload encodings inside param/update frames; any other tag
// is refused as an unknown encoding. Tags 2 and 3 are retired — older
// builds sent int8/int16 quantized codes under them — so a new encoding
// must not reuse them, or such a peer's frames would be misparsed.
const (
	encDense byte = iota
	encSparse
)

// frameBufPool recycles frame encode/decode buffers across sessions and
// messages — the shared scratch that keeps the binary path allocation-free
// at steady state (asserted in bench_test.go).
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// grown extends b by n bytes (contents unspecified), reallocating only when
// capacity runs out.
func grown(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l >= n {
		return b[: l+n : cap(b)]
	}
	nb := make([]byte, l+n, 2*(l+n))
	copy(nb, b)
	return nb
}

func appendU8(b []byte, v byte) []byte { return append(b, v) }

func appendU16(b []byte, v uint16) []byte {
	off := len(b)
	b = grown(b, 2)
	binary.LittleEndian.PutUint16(b[off:], v)
	return b
}

func appendU32(b []byte, v uint32) []byte {
	off := len(b)
	b = grown(b, 4)
	binary.LittleEndian.PutUint32(b[off:], v)
	return b
}

func appendI64(b []byte, v int64) []byte {
	off := len(b)
	b = grown(b, 8)
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
	return b
}

func appendF64(b []byte, v float64) []byte {
	off := len(b)
	b = grown(b, 8)
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
	return b
}

// appendStr writes a u16 length prefix plus raw bytes; strings beyond the
// prefix's range (never legitimate here) are truncated.
func appendStr(b []byte, s string) []byte {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendF64s is the bulk payload loop: one 8-byte little-endian store per
// value into a buffer grown once.
func appendF64s(b []byte, vs []float64) []byte {
	off := len(b)
	b = grown(b, 8*len(vs))
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	off := len(b)
	b = grown(b, 4*len(vs))
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
		off += 4
	}
	return b
}

// wireReader is a bounds-checked cursor over one frame payload. Every
// accessor degrades to the zero value once an overrun is recorded; the
// caller checks err after parsing. Nothing here panics on hostile input —
// FuzzBinaryDecode pins that.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("fl: truncated binary frame: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wireReader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *wireReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *wireReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *wireReader) i64() int64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(s))
}

func (r *wireReader) f64() float64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (r *wireReader) str() string {
	n := int(r.u16())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// done rejects trailing bytes: a frame must be consumed exactly.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("fl: %d trailing bytes after binary frame payload", len(r.b)-r.off)
	}
	return nil
}

// --- Tensor sections -------------------------------------------------------

// appendTensorHeader writes one tensor's geometry: encoding, rank, dims.
func appendTensorHeader(b []byte, enc byte, shape []int) []byte {
	b = appendU8(b, enc)
	b = appendU8(b, byte(len(shape)))
	for _, d := range shape {
		b = appendI64(b, int64(d))
	}
	return b
}

// appendDenseSection writes a dense-only tensor section (param frames).
func appendDenseSection(b []byte, ws []TensorWire) []byte {
	b = appendI64(b, int64(len(ws)))
	for _, w := range ws {
		b = appendTensorHeader(b, encDense, w.Shape)
		b = appendF64s(b, w.Data)
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

// appendDirectTensors writes an update section straight from dense in-memory
// tensors with no intermediate wire structs: the dense-vs-sparse decision is
// EncodeUpdate's (sparse below 50% density), the sparse entries are counted
// and streamed in two passes over the raw data.
func appendDirectTensors(b []byte, ts []*tensor.Tensor) []byte {
	b = appendI64(b, int64(len(ts)))
	if sparseWorthwhile(ts) {
		for _, t := range ts {
			data := t.Data()
			nnz := 0
			for _, v := range data {
				if v != 0 {
					nnz++
				}
			}
			b = appendTensorHeader(b, encSparse, t.Shape())
			b = appendI64(b, int64(nnz))
			off := len(b)
			b = grown(b, 12*nnz)
			for j, v := range data {
				if v != 0 {
					binary.LittleEndian.PutUint32(b[off:], uint32(int32(j)))
					off += 4
				}
			}
			for _, v := range data {
				if v != 0 {
					binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
					off += 8
				}
			}
		}
		return b
	}
	for _, t := range ts {
		b = appendTensorHeader(b, encDense, t.Shape())
		b = appendF64s(b, t.Data())
	}
	return b
}

// readTensorsInto parses one tensor section of count entries, sorting them
// by encoding onto dense[:0] and sparse[:0]: entries, shapes and payload
// slices already allocated there are reused wherever their capacity fits,
// so a message decoded into again and again stops allocating once it has
// seen the largest model. It bounds every count before allocating and
// proves the payload bytes are present before converting them; semantic
// validation (finite values, index ranges) stays with the message Validate
// gate. An empty section decodes to nil slices, exactly as into a zero
// message.
func readTensorsInto(r *wireReader, count int64, dense []TensorWire, sparse []SparseTensorWire) ([]TensorWire, []SparseTensorWire, error) {
	if r.err != nil {
		return nil, nil, r.err
	}
	if count < 0 || count > maxWireTensors {
		return nil, nil, fmt.Errorf("fl: binary frame declares %d tensors (cap %d)", count, maxWireTensors)
	}
	dense, sparse = dense[:0], sparse[:0]
	for i := int64(0); i < count; i++ {
		enc := r.u8()
		rank := int(r.u8())
		if rank > maxWireDims {
			return nil, nil, fmt.Errorf("fl: binary wire tensor rank %d exceeds %d", rank, maxWireDims)
		}
		var shape []int
		switch enc {
		case encDense:
			dense = extend(dense)
			shape = dense[len(dense)-1].Shape
		case encSparse:
			sparse = extend(sparse)
			shape = sparse[len(sparse)-1].Shape
		}
		shape = reuse(shape, rank)
		for j := range shape {
			d := r.i64()
			if d < 0 || d > maxWireElems {
				return nil, nil, fmt.Errorf("fl: binary wire dimension %d outside [0, %d]", d, maxWireElems)
			}
			shape[j] = int(d)
		}
		if r.err != nil {
			return nil, nil, r.err
		}
		n, err := validShapeLen(shape)
		if err != nil {
			return nil, nil, err
		}
		switch enc {
		case encDense:
			raw := r.take(8 * n)
			if r.err != nil {
				return nil, nil, r.err
			}
			w := &dense[len(dense)-1]
			w.Shape, w.Data = shape, reuse(w.Data, n)
			for j := range w.Data {
				w.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		case encSparse:
			nnz64 := r.i64()
			if r.err != nil {
				return nil, nil, r.err
			}
			if nnz64 < 0 || nnz64 > int64(n) {
				return nil, nil, fmt.Errorf("fl: binary sparse tensor declares %d entries for %d elements", nnz64, n)
			}
			nnz := int(nnz64)
			rawIdx := r.take(4 * nnz)
			rawVal := r.take(8 * nnz)
			if r.err != nil {
				return nil, nil, r.err
			}
			w := &sparse[len(sparse)-1]
			w.Shape, w.Indices, w.Values = shape, reuse(w.Indices, nnz), reuse(w.Values, nnz)
			for j := 0; j < nnz; j++ {
				w.Indices[j] = int32(binary.LittleEndian.Uint32(rawIdx[4*j:]))
				w.Values[j] = math.Float64frombits(binary.LittleEndian.Uint64(rawVal[8*j:]))
			}
		default:
			return nil, nil, fmt.Errorf("fl: unknown binary tensor encoding %d", enc)
		}
	}
	if len(dense) == 0 {
		dense = nil
	}
	if len(sparse) == 0 {
		sparse = nil
	}
	return dense, sparse, nil
}

// extend grows s by one element, keeping what the slot past its length
// held (to reuse its buffers) when its capacity allows.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// reuse returns s resliced to n elements when its capacity fits (contents
// unspecified), a fresh slice otherwise. It never returns nil, so a reused
// empty shape or payload equals a freshly decoded one.
func reuse[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// --- Message payloads ------------------------------------------------------

func appendParamPayload(b []byte, m *ParamMsg) []byte {
	b = appendI64(b, int64(m.Round))
	if m.Denied {
		b = appendU8(b, 1)
	} else {
		b = appendU8(b, 0)
	}
	b = appendStr(b, m.Reason)
	b = appendI64(b, int64(m.Cfg.BatchSize))
	b = appendI64(b, int64(m.Cfg.LocalIters))
	b = appendF64(b, m.Cfg.LR)
	b = appendI64(b, int64(m.Cfg.TotalRounds))
	b = appendStr(b, m.Cfg.Scenario.Name)
	b = appendF64(b, m.Cfg.Scenario.Alpha)
	b = appendI64(b, int64(m.Cfg.Scenario.Shards))
	b = appendI64(b, int64(m.Cfg.Scenario.Period))
	b = appendStr(b, "") // the retired precision slot: every run is float64
	b = appendStr(b, m.Cfg.ConfigDigest)
	return appendDenseSection(b, m.Params)
}

// parseParamPayload decodes into m, reusing its Params buffers.
func parseParamPayload(b []byte, m *ParamMsg) error {
	r := wireReader{b: b}
	params := m.Params
	*m = ParamMsg{
		Round:  int(r.i64()),
		Denied: r.u8() != 0,
		Reason: r.str(),
		Cfg: RoundConfig{
			BatchSize:   int(r.i64()),
			LocalIters:  int(r.i64()),
			LR:          r.f64(),
			TotalRounds: int(r.i64()),
			Scenario: dataset.Scenario{
				Name:   r.str(),
				Alpha:  r.f64(),
				Shards: int(r.i64()),
				Period: int(r.i64()),
			},
		},
	}
	// The retired precision slot: a peer announcing a width other than
	// float64 trains at one this end cannot honour.
	if p := r.str(); p != "" && p != "fp64" {
		return fmt.Errorf("fl: announced precision %q unknown", p)
	}
	m.Cfg.ConfigDigest = r.str()
	dense, sparse, err := readTensorsInto(&r, r.i64(), params, nil)
	if err != nil {
		return err
	}
	if len(sparse) > 0 {
		return fmt.Errorf("fl: round announcement parameters must be dense")
	}
	m.Params = dense
	return r.done()
}

// partialSentinel marks an update frame whose payload is an edge's exact
// partial fold instead of a tensor section. Every pre-partial frame starts
// its section with a non-negative tensor count, so the sentinel is
// unambiguous and leaves all existing frames byte-identical.
const partialSentinel int64 = -1

func appendUpdatePayload(b []byte, m *UpdateMsg) []byte {
	b = appendI64(b, int64(m.ClientID))
	b = appendI64(b, int64(m.Round))
	b = appendF64(b, m.Weight)
	if m.Partial != nil {
		b = appendI64(b, partialSentinel)
		return appendPartial(b, m.Partial)
	}
	return appendUpdateSection(b, m)
}

// appendExactScalar writes one exact accumulator element: spec, sign,
// exponent, and the length-prefixed big-endian mantissa.
func appendExactScalar(b []byte, w ExactScalarWire) []byte {
	b = appendU8(b, w.Spec)
	if w.Neg {
		b = appendU8(b, 1)
	} else {
		b = appendU8(b, 0)
	}
	b = appendI64(b, w.Exp)
	b = appendU32(b, uint32(len(w.Mant)))
	return append(b, w.Mant...)
}

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

// appendPartial writes an edge partial: rule, client count, optional
// weight sum, then the exact-sum tensors (rank, dims, per-element scalars).
func appendPartial(b []byte, p *PartialWire) []byte {
	b = appendStr(b, p.Rule)
	b = appendI64(b, int64(p.Clients))
	if p.HasWSum {
		b = appendU8(b, 1)
		b = appendExactScalar(b, p.WSum)
	} else {
		b = appendU8(b, 0)
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

// parsePartial is appendPartial's bounds-checked inverse; semantic
// validation (rule, counts, scalar envelope) stays with PartialWire.Validate.
func parsePartial(r *wireReader) (*PartialWire, error) {
	p := &PartialWire{Rule: r.str(), Clients: int(r.i64())}
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
	p.Sums = make([]ExactTensorWire, 0, count)
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
		elems := make([]ExactScalarWire, n)
		for j := range elems {
			elems[j] = parseExactScalar(r)
			if r.err != nil {
				return nil, r.err
			}
		}
		p.Sums = append(p.Sums, ExactTensorWire{Shape: shape, Elems: elems})
	}
	return p, r.err
}

// parseUpdatePayload decodes into m, reusing its Delta and Sparse buffers.
func parseUpdatePayload(b []byte, m *UpdateMsg) error {
	r := wireReader{b: b}
	dense, sparse := m.Delta, m.Sparse
	*m = UpdateMsg{
		ClientID: int(r.i64()),
		Round:    int(r.i64()),
		Weight:   r.f64(),
	}
	count := r.i64()
	if count == partialSentinel && r.err == nil {
		p, err := parsePartial(&r)
		if err != nil {
			return err
		}
		m.Partial = p
		return r.done()
	}
	var err error
	m.Delta, m.Sparse, err = readTensorsInto(&r, count, dense, sparse)
	if err != nil {
		return err
	}
	return r.done()
}

func appendAckPayload(b []byte, m *AckMsg) []byte {
	if m.Accepted {
		b = appendU8(b, 1)
	} else {
		b = appendU8(b, 0)
	}
	return appendStr(b, m.Reason)
}

func parseAckPayload(b []byte, m *AckMsg) error {
	r := wireReader{b: b}
	*m = AckMsg{Accepted: r.u8() != 0, Reason: r.str()}
	return r.done()
}

// --- Sessions --------------------------------------------------------------

// wireSession is one end of a client/server session, the codec seam: the
// protocol logic in rpc.go speaks messages, the session speaks bytes.
type wireSession interface {
	WriteParam(*ParamMsg) error
	ReadParam(*ParamMsg) error
	// WriteUpdate encodes a prebuilt update message (tests, benchmarks,
	// trusted re-encoding). The client path uses WriteUpdateTensors.
	WriteUpdate(*UpdateMsg) error
	// WriteUpdateTensors encodes a client update straight from its dense
	// in-memory tensors, dense or sparse by density.
	WriteUpdateTensors(clientID, round int, weight float64, ts []*tensor.Tensor) error
	ReadUpdate(*UpdateMsg) error
	WriteAck(*AckMsg) error
	ReadAck(*AckMsg) error
}

// newSession opens one end of a session in the codec this end is configured
// with. Nothing is announced or negotiated, so opening does no I/O: both
// ends speak their codec from the first byte, and an end whose peer speaks
// the other one fails at the first frame it reads (codecMismatch).
func newSession(rw io.ReadWriter, codec string) (wireSession, error) {
	switch codec {
	case "", CodecGob:
		return newGobSession(rw, rw), nil
	case CodecBinary:
		return &binarySession{r: rw, w: rw}, nil
	}
	return nil, fmt.Errorf("fl: unknown wire codec %q", codec)
}

// codecMismatch is the error of an end that reads the other codec's first
// byte: 0x00, the binary magic's, on a gob session, or anything else on a
// binary one.
func codecMismatch(this, peer string) error {
	return fmt.Errorf("fl: wire codec mismatch: this end speaks %s, its peer %s (told apart by the binary frame magic's leading 0x00); both ends must be configured with the same codec", this, peer)
}

// gobSession is the legacy self-describing encoding: one encoder/decoder
// pair per session (gob decoders read ahead, so a second decoder on the
// same stream would lose bytes). Its byte stream is identical to the
// pre-codec protocol.
type gobSession struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

func newGobSession(r io.Reader, w io.Writer) *gobSession {
	return &gobSession{enc: gob.NewEncoder(w), dec: gob.NewDecoder(&gobReader{r: r})}
}

// gobReader is a gob decoder's source that refuses a binary peer at the
// stream's first byte.
type gobReader struct {
	r       io.Reader
	started bool
}

func (g *gobReader) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	if n > 0 && !g.started {
		g.started = true
		if p[0] == binaryMagic[0] {
			return 0, codecMismatch(CodecGob, CodecBinary)
		}
	}
	return n, err
}

func (s *gobSession) WriteParam(m *ParamMsg) error   { return s.enc.Encode(m) }
func (s *gobSession) WriteUpdate(m *UpdateMsg) error { return s.enc.Encode(m) }
func (s *gobSession) WriteAck(m *AckMsg) error       { return s.enc.Encode(m) }

// The Read methods zero their target first: gob leaves fields the stream
// omits (zero values) untouched, so decoding into a reused message would
// otherwise merge it with the previous one.

func (s *gobSession) ReadParam(m *ParamMsg) error {
	*m = ParamMsg{}
	return s.dec.Decode(m)
}

func (s *gobSession) ReadUpdate(m *UpdateMsg) error {
	*m = UpdateMsg{}
	return s.dec.Decode(m)
}

func (s *gobSession) ReadAck(m *AckMsg) error {
	*m = AckMsg{}
	return s.dec.Decode(m)
}

func (s *gobSession) WriteUpdateTensors(clientID, round int, weight float64, ts []*tensor.Tensor) error {
	msg := UpdateMsg{ClientID: clientID, Round: round, Weight: weight}
	msg.Delta, msg.Sparse = EncodeUpdate(ts)
	return s.enc.Encode(&msg)
}

// binarySession speaks the framed binary encoding over rw.
type binarySession struct {
	r io.Reader
	w io.Writer
}

// beginFrame draws a pooled buffer pre-filled with the 12-byte header
// template (magic, version, kind; flags and length zero until endFrame).
func beginFrame(kind byte) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, binaryMagic[:]...)
	b = append(b, binaryVersion, kind, 0, 0, 0, 0, 0, 0)
	*bp = b
	return bp
}

// endFrame stamps the payload length, writes the frame in one call, and
// recycles the buffer.
func (s *binarySession) endFrame(bp *[]byte) error {
	b := *bp
	defer frameBufPool.Put(bp)
	n := len(b) - frameHeaderLen
	if n > maxFramePayload {
		return fmt.Errorf("fl: binary frame payload %d exceeds %d", n, maxFramePayload)
	}
	binary.LittleEndian.PutUint32(b[8:12], uint32(n))
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("fl: writing binary frame: %w", err)
	}
	return nil
}

// readFrame reads one frame of the wanted kind into a pooled buffer,
// returning the payload and a release function to call once parsed. The
// buffer grows with the payload bytes that arrive, never ahead of them to
// the length the header claims: a peer that declares maxFramePayload and
// hangs up costs what it sent, and a failed read returns nothing to the
// pool.
func (s *binarySession) readFrame(wantKind byte) ([]byte, func(), error) {
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(s.r, h[:]); err != nil {
		return nil, nil, fmt.Errorf("fl: reading binary frame header: %w", err)
	}
	switch {
	case h[0] != binaryMagic[0]:
		return nil, nil, codecMismatch(CodecBinary, CodecGob)
	case !bytes.Equal(h[:4], binaryMagic[:]):
		return nil, nil, fmt.Errorf("fl: bad binary frame magic % x", h[:4])
	case h[4] != binaryVersion:
		return nil, nil, fmt.Errorf("fl: unsupported binary codec version %d", h[4])
	case h[5] != wantKind:
		return nil, nil, fmt.Errorf("fl: unexpected binary frame kind %d, want %d", h[5], wantKind)
	}
	n := binary.LittleEndian.Uint32(h[8:12])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("fl: binary frame payload %d exceeds %d", n, maxFramePayload)
	}
	bp := frameBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(int(n), max(2*cap(b), 4096))), b...)
		}
		end := min(int(n), cap(b))
		if _, err := io.ReadFull(s.r, b[len(b):end]); err != nil {
			return nil, nil, fmt.Errorf("fl: reading binary frame payload: %w", err)
		}
		b = b[:end]
	}
	*bp = b
	return b, func() { frameBufPool.Put(bp) }, nil
}

func (s *binarySession) WriteParam(m *ParamMsg) error {
	bp := beginFrame(kindParam)
	*bp = appendParamPayload(*bp, m)
	return s.endFrame(bp)
}

func (s *binarySession) ReadParam(m *ParamMsg) error {
	b, release, err := s.readFrame(kindParam)
	if err != nil {
		return err
	}
	defer release()
	return parseParamPayload(b, m)
}

func (s *binarySession) WriteUpdate(m *UpdateMsg) error {
	bp := beginFrame(kindUpdate)
	*bp = appendUpdatePayload(*bp, m)
	return s.endFrame(bp)
}

func (s *binarySession) WriteUpdateTensors(clientID, round int, weight float64, ts []*tensor.Tensor) error {
	bp := beginFrame(kindUpdate)
	b := *bp
	b = appendI64(b, int64(clientID))
	b = appendI64(b, int64(round))
	b = appendF64(b, weight)
	*bp = appendDirectTensors(b, ts)
	return s.endFrame(bp)
}

func (s *binarySession) ReadUpdate(m *UpdateMsg) error {
	b, release, err := s.readFrame(kindUpdate)
	if err != nil {
		return err
	}
	defer release()
	return parseUpdatePayload(b, m)
}

func (s *binarySession) WriteAck(m *AckMsg) error {
	bp := beginFrame(kindAck)
	*bp = appendAckPayload(*bp, m)
	return s.endFrame(bp)
}

func (s *binarySession) ReadAck(m *AckMsg) error {
	b, release, err := s.readFrame(kindAck)
	if err != nil {
		return err
	}
	defer release()
	return parseAckPayload(b, m)
}
