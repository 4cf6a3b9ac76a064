package fl

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

// Fuzz targets for the gob wire codec: whatever bytes a peer sends, the
// decode-and-validate path must return an error or a sound value — never
// panic, never hand non-finite or mis-shaped tensors to the runtime. The
// CI sim job runs each target as a short fuzz smoke on every push; the
// accumulated corpus can be grown locally with
//
//	go test -fuzz=FuzzUpdateMsgDecode -fuzztime=60s ./internal/fl

// gobBytes encodes a value for the seed corpus.
func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzPartialMsg is an edge→root update for the seed corpora: a weighted
// partial whose sums span several limbs, with a cancelled-to-zero element
// and a NaN-poisoned one.
func fuzzPartialMsg() *UpdateMsg {
	edge, _ := NewExact(AggWeighted)
	edge.Begin([]*tensor.Tensor{tensor.FromSlice([]float64{0.5, -2, 1e-9, 0}, 2, 2)})
	edge.FoldClient(0, []*tensor.Tensor{tensor.FromSlice([]float64{1e-7, 3, -1e-9, math.NaN()}, 2, 2)}, 3)
	edge.FoldClient(1, []*tensor.Tensor{tensor.FromSlice([]float64{-0.25, 1e12, -1e-9, 1}, 2, 2)}, 1)
	return &UpdateMsg{ClientID: 2, Round: 1, Partial: edge.TakePartial().Wire()}
}

// checkPartialSound asserts what validation promises about a wire partial:
// it installs without error, and the installed sums re-encode to a
// canonical form that is a fixed point of decode→encode.
func checkPartialSound(t *testing.T, w *PartialWire) {
	t.Helper()
	p, err := PartialFromWire(w)
	if err != nil {
		t.Fatalf("validated partial does not install: %v", err)
	}
	canon := p.Wire()
	again, err := PartialFromWire(canon)
	if err != nil {
		t.Fatalf("canonical partial rejected: %v", err)
	}
	if !bytes.Equal(appendPartial(nil, canon), appendPartial(nil, again.Wire())) {
		t.Fatal("canonical partial is not a fixed point of decode→encode")
	}
}

func FuzzUpdateMsgDecode(f *testing.F) {
	good := UpdateMsg{ClientID: 3, Round: 1, Weight: 5}
	good.Delta = WireFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{1, -2, 3, 4}, 2, 2)})
	sparse := UpdateMsg{ClientID: 0, Round: 0, Weight: 1}
	sparse.Sparse = SparseFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{0, 0, 7, 0}, 4)})
	hostileNaN := UpdateMsg{ClientID: 1, Round: 0, Delta: []TensorWire{{Shape: []int{1}, Data: []float64{math.NaN()}}}}
	hostileLen := UpdateMsg{ClientID: 1, Round: 0, Delta: []TensorWire{{Shape: []int{math.MaxInt32}, Data: []float64{1}}}}
	f.Add(gobBytes(f, good))
	f.Add(gobBytes(f, sparse))
	f.Add(gobBytes(f, hostileNaN))
	f.Add(gobBytes(f, hostileLen))
	f.Add(gobBytes(f, *fuzzPartialMsg()))
	f.Add([]byte{0x03, 0xff, 0x00})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m UpdateMsg
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return // malformed gob is rejected at the transport layer
		}
		ts, err := m.DecodeTensors()
		if err != nil {
			return // hostile but well-formed gob is rejected by validation
		}
		if m.Partial != nil {
			checkPartialSound(t, m.Partial)
		}
		// Whatever survived validation must be sound: finite values in
		// tensors whose element counts match their declared shapes.
		for i, w := range m.Delta {
			if ts[i].Len() != len(w.Data) {
				t.Fatalf("tensor %d decoded %d elements from %d wire values", i, ts[i].Len(), len(w.Data))
			}
		}
		for _, tt := range ts {
			for _, v := range tt.Data() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite value %v survived validation", v)
				}
			}
		}
		// A validated message re-encodes and re-decodes to the same tensors.
		var m2 UpdateMsg
		if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, m))).Decode(&m2); err != nil {
			t.Fatalf("re-decoding a validated message: %v", err)
		}
		ts2, err := m2.DecodeTensors()
		if err != nil {
			t.Fatalf("re-validating a validated message: %v", err)
		}
		for i := range ts {
			if !ts[i].Equal(ts2[i], 0) {
				t.Fatalf("tensor %d does not round-trip", i)
			}
		}
	})
}

func FuzzParamMsgDecode(f *testing.F) {
	good := ParamMsg{
		Round:  2,
		Params: WireFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{0.5, -0.5}, 2)}),
		Cfg:    RoundConfig{BatchSize: 4, LocalIters: 5, LR: 0.1, TotalRounds: 3},
	}
	denied := ParamMsg{Denied: true, Reason: "no further rounds"}
	hostile := ParamMsg{Round: 0, Params: []TensorWire{{Shape: []int{2, -3}, Data: nil}}, Cfg: RoundConfig{BatchSize: 1, LocalIters: 1, LR: 1}}
	f.Add(gobBytes(f, good))
	f.Add(gobBytes(f, denied))
	f.Add(gobBytes(f, hostile))
	f.Add([]byte{0xff, 0xfe, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m ParamMsg
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			return
		}
		if m.Denied {
			return
		}
		// A validated announcement must be installable: TensorsFromWire on
		// validated params cannot panic, and the config drives finite
		// training loops.
		ts := TensorsFromWire(m.Params)
		for i, w := range m.Params {
			if ts[i].Len() != len(w.Data) {
				t.Fatalf("param %d decoded %d elements from %d wire values", i, ts[i].Len(), len(w.Data))
			}
		}
		if m.Cfg.BatchSize <= 0 || m.Cfg.LocalIters <= 0 || !(m.Cfg.LR > 0) {
			t.Fatalf("unsane round config survived validation: %+v", m.Cfg)
		}
	})
}

// FuzzBinaryDecode drives the binary codec's frame and payload parsers
// with arbitrary bytes: whatever a peer sends, decode must return an
// error or a sound message — never panic, never allocate past the wire
// bounds. A payload that parses AND validates must re-encode and re-parse
// to bit-identical tensors (the codec is self-inverse on its own output).
func FuzzBinaryDecode(f *testing.F) {
	um := &UpdateMsg{ClientID: 3, Round: 1, Weight: 5}
	um.Delta = WireFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{1, -2, 3, 4}, 2, 2)})
	sp := &UpdateMsg{ClientID: 0, Round: 0, Weight: 1}
	sp.Sparse = SparseFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{0, 0, 7, 0}, 4)})
	// A raw section under tag 2, the retired int8 encoding (scale, then one
	// code per element): refused as an unknown encoding.
	q := appendI64(nil, 1) // ClientID
	q = appendI64(q, 2)    // Round
	q = appendF64(q, 3)    // Weight
	q = appendI64(q, 1)    // one tensor
	q = appendTensorHeader(q, 2, []int{2})
	q = appendF64(q, 0.5)
	q = append(q, 1, 0xFF)
	pm := testParamMsg()
	f.Add(appendUpdatePayload(nil, um))
	f.Add(appendUpdatePayload(nil, sp))
	f.Add(q)
	f.Add(appendUpdatePayload(nil, fuzzPartialMsg()))
	f.Add(appendParamPayload(nil, pm))
	f.Add(appendAckPayload(nil, &AckMsg{Accepted: true, Reason: "ok"}))
	f.Add(frameBytes(binaryVersion, kindUpdate, appendUpdatePayload(nil, um)))
	f.Add([]byte{0x00, 'F', 'C', 'W', binaryVersion, kindUpdate, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var gotPM ParamMsg
		if parseParamPayload(data, &gotPM) == nil && gotPM.Validate() == nil && !gotPM.Denied {
			re := appendParamPayload(nil, &gotPM)
			var again ParamMsg
			if err := parseParamPayload(re, &again); err != nil {
				t.Fatalf("re-parsing a validated announcement: %v", err)
			}
			checkParamEqual(t, "fuzz param", &gotPM, &again)
		}
		var gotUM UpdateMsg
		umErr := parseUpdatePayload(data, &gotUM)
		if umErr == nil {
			umErr = gotUM.Validate()
		}
		if umErr == nil {
			re := appendUpdatePayload(nil, &gotUM)
			var again UpdateMsg
			if err := parseUpdatePayload(re, &again); err != nil {
				t.Fatalf("re-parsing a validated update: %v", err)
			}
			checkUpdateEqual(t, "fuzz update", &gotUM, &again)
		}
		// A partial payload is differential: the in-place parse accepts
		// exactly what the pre-in-place parser and PartialWire.Validate
		// accept, into the same accumulator bits.
		if want, oErr := oraclePartialUpdate(data); oErr != errNotPartial {
			if oErr == nil {
				oErr = want.Validate()
			}
			if (umErr == nil) != (oErr == nil) {
				t.Fatalf("in-place parse error %v, oracle error %v", umErr, oErr)
			}
			if umErr == nil {
				checkPartialMatchesOracle(t, gotUM.partial, want.Partial)
			}
		}
		var gotAck AckMsg
		_ = parseAckPayload(data, &gotAck)
		// The framed path must survive the same bytes as a whole stream.
		s := &binarySession{r: bytes.NewReader(data)}
		var m UpdateMsg
		_ = s.ReadUpdate(&m)
	})
}

func FuzzSparseWire(f *testing.F) {
	f.Add(4, []byte{0, 2}, []byte{10, 20})
	f.Add(0, []byte{}, []byte{})
	f.Add(3, []byte{0, 1, 2, 3, 4}, []byte{1})
	f.Add(2, []byte{255}, []byte{1})

	f.Fuzz(func(t *testing.T, dim int, idxBytes, valBytes []byte) {
		w := SparseTensorWire{Shape: []int{dim}}
		for _, b := range idxBytes {
			w.Indices = append(w.Indices, int32(b)-8) // some negatives too
		}
		for _, b := range valBytes {
			w.Values = append(w.Values, float64(b)-128)
		}
		if err := w.Validate(); err != nil {
			return
		}
		// Validated sparse tensors decode without panics into the declared
		// shape, and dense→sparse→dense round-trips exactly.
		// Validation rejected negative dims, so dim is the element count.
		ts := TensorsFromSparse([]SparseTensorWire{w})
		if ts[0].Len() != dim {
			t.Fatalf("decoded %d elements for shape [%d]", ts[0].Len(), dim)
		}
		back := TensorsFromSparse(SparseFromTensors(ts))
		if !ts[0].Equal(back[0], 0) {
			t.Fatal("sparse round-trip changed the tensor")
		}
	})
}
