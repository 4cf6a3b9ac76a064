package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Tests for the binary wire codec: cross-parity against the gob oracle
// (both codecs must decode every message kind to bit-identical values),
// the codec-mismatch refusal, hostile-frame rejection, the
// quantization kernel's error-feedback contract, and the zero-alloc steady
// state of the pooled encode path.

// testParamMsg is a round announcement exercising every field the codec
// must carry, including the full RoundConfig.
func testParamMsg() *ParamMsg {
	return &ParamMsg{
		Round: 3,
		Params: WireFromTensors([]*tensor.Tensor{
			tensor.FromSlice([]float64{0.125, -7.5, 3.25, 1e-9}, 2, 2),
			tensor.FromSlice([]float64{42}, 1),
		}),
		Cfg: RoundConfig{
			BatchSize: 8, LocalIters: 5, LR: 0.05, TotalRounds: 9,
			Scenario: dataset.Scenario{Name: "dirichlet", Alpha: 0.3},
		},
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func shapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkParamEqual asserts b decodes bit-identically to a.
func checkParamEqual(t *testing.T, label string, a, b *ParamMsg) {
	t.Helper()
	if a.Round != b.Round || a.Denied != b.Denied || a.Reason != b.Reason || a.Cfg != b.Cfg {
		t.Fatalf("%s: header/config changed: %+v vs %+v", label, a, b)
	}
	if len(a.Params) != len(b.Params) {
		t.Fatalf("%s: %d params decoded, want %d", label, len(b.Params), len(a.Params))
	}
	for i := range a.Params {
		if !shapesEqual(a.Params[i].Shape, b.Params[i].Shape) || !bitsEqual(a.Params[i].Data, b.Params[i].Data) {
			t.Fatalf("%s: param %d not bit-identical", label, i)
		}
	}
}

// checkUpdateEqual asserts b decodes bit-identically to a, across every
// payload encoding.
func checkUpdateEqual(t *testing.T, label string, a, b *UpdateMsg) {
	t.Helper()
	if !bytes.Equal(partialBytes(a), partialBytes(b)) {
		t.Fatalf("%s: partial not bit-identical", label)
	}
	if a.ClientID != b.ClientID || a.Round != b.Round || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
		t.Fatalf("%s: header changed: %+v vs %+v", label, a, b)
	}
	if len(a.Delta) != len(b.Delta) || len(a.Sparse) != len(b.Sparse) {
		t.Fatalf("%s: payload sections changed: %d/%d vs %d/%d", label,
			len(a.Delta), len(a.Sparse), len(b.Delta), len(b.Sparse))
	}
	for i := range a.Delta {
		if !shapesEqual(a.Delta[i].Shape, b.Delta[i].Shape) || !bitsEqual(a.Delta[i].Data, b.Delta[i].Data) {
			t.Fatalf("%s: dense tensor %d not bit-identical", label, i)
		}
	}
	for i := range a.Sparse {
		aw, bw := a.Sparse[i], b.Sparse[i]
		if !shapesEqual(aw.Shape, bw.Shape) || len(aw.Indices) != len(bw.Indices) || !bitsEqual(aw.Values, bw.Values) {
			t.Fatalf("%s: sparse tensor %d not bit-identical", label, i)
		}
		for j := range aw.Indices {
			if aw.Indices[j] != bw.Indices[j] {
				t.Fatalf("%s: sparse tensor %d index %d changed", label, i, j)
			}
		}
	}
}

// partialBytes is m's partial in binary form (nil for none), whichever of
// gob's wire body or the binary codec's in-place decode carries it.
func partialBytes(m *UpdateMsg) []byte {
	switch {
	case m.partial != nil:
		return appendPartialDirect(nil, m.partial)
	case m.Partial != nil:
		return appendPartial(nil, m.Partial)
	}
	return nil
}

// exportedUpdate is m's exported fields: what a decode must reproduce. The
// unexported decode storage (tensor views, a partial's pooled accumulators
// and their windows) may differ between a fresh and a reused message;
// checkUpdateEqual compares the partial it holds by value.
func exportedUpdate(m *UpdateMsg) UpdateMsg {
	return UpdateMsg{ClientID: m.ClientID, Round: m.Round, Weight: m.Weight, Delta: m.Delta, Sparse: m.Sparse, Partial: m.Partial}
}

// testUpdateMsgs returns one update per payload encoding, including a
// rank-0 scalar tensor (geometry edge) in the dense case.
func testUpdateMsgs() map[string]*UpdateMsg {
	dense := &UpdateMsg{ClientID: 2, Round: 3, Weight: 17}
	dense.Delta = []TensorWire{
		{Shape: []int{2, 3}, Data: []float64{1, -2.5, 0, 4.125, -1e-30, 6}},
		{Shape: []int{}, Data: []float64{3.14159}},
	}
	sparse := &UpdateMsg{ClientID: 0, Round: 3, Weight: 1}
	sparse.Sparse = SparseFromTensors([]*tensor.Tensor{
		tensor.FromSlice([]float64{0, 0, 7.25, 0, 0, 0, -3, 0}, 8),
	})
	return map[string]*UpdateMsg{"dense": dense, "sparse": sparse}
}

// bufSession builds a session of the named codec reading and writing one
// in-memory buffer — message-level round-trips without a peer.
func bufSession(codec string, buf *bytes.Buffer) wireSession {
	if codec == CodecBinary {
		return &binarySession{r: buf, w: buf}
	}
	return newGobSession(buf, buf)
}

// TestCodecMessageParityMatrix round-trips every message kind and payload
// encoding through both codecs: each must reproduce the original message
// bit-identically, making gob and binary interchangeable oracles of one
// another.
func TestCodecMessageParityMatrix(t *testing.T) {
	for _, codec := range []string{CodecGob, CodecBinary} {
		var buf bytes.Buffer
		s := bufSession(codec, &buf)

		pm := testParamMsg()
		if err := s.WriteParam(pm); err != nil {
			t.Fatalf("%s: WriteParam: %v", codec, err)
		}
		var gotPM ParamMsg
		if err := s.ReadParam(&gotPM); err != nil {
			t.Fatalf("%s: ReadParam: %v", codec, err)
		}
		checkParamEqual(t, codec+"/param", pm, &gotPM)

		denied := &ParamMsg{Denied: true, Reason: "no further rounds"}
		if err := s.WriteParam(denied); err != nil {
			t.Fatal(err)
		}
		var gotDenied ParamMsg
		if err := s.ReadParam(&gotDenied); err != nil {
			t.Fatal(err)
		}
		checkParamEqual(t, codec+"/denied", denied, &gotDenied)

		for name, um := range testUpdateMsgs() {
			if err := writeUpdate(s, um); err != nil {
				t.Fatalf("%s/%s: WriteUpdate: %v", codec, name, err)
			}
			var got UpdateMsg
			if err := s.ReadUpdate(&got); err != nil {
				t.Fatalf("%s/%s: ReadUpdate: %v", codec, name, err)
			}
			checkUpdateEqual(t, codec+"/"+name, um, &got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s/%s: decoded update invalid: %v", codec, name, err)
			}
		}

		for _, ack := range []*AckMsg{{Accepted: true}, {Accepted: false, Reason: "round closed"}} {
			if err := s.WriteAck(ack); err != nil {
				t.Fatal(err)
			}
			var got AckMsg
			if err := s.ReadAck(&got); err != nil {
				t.Fatal(err)
			}
			if got != *ack {
				t.Fatalf("%s: ack %+v round-tripped to %+v", codec, *ack, got)
			}
		}
	}
}

// TestDecodeIntoDirtyMessage pins buffer reuse on the read side: decoding
// into a message that still holds a previous decode — larger tensors, a
// denial, a sparse payload, a partial fold — gives exactly what decoding
// into a zero message gives, in both codecs.
func TestDecodeIntoDirtyMessage(t *testing.T) {
	big := func(n int) []TensorWire {
		ws := make([]TensorWire, n)
		for i := range ws {
			ws[i] = TensorWire{Shape: []int{4, 2, 3}, Data: make([]float64, 24)}
			for j := range ws[i].Data {
				ws[i].Data[j] = float64(100*i + j)
			}
		}
		return ws
	}
	dirtyParams := map[string]func() *ParamMsg{
		"larger": func() *ParamMsg { return &ParamMsg{Round: 9, Params: big(4)} },
		"denied": func() *ParamMsg {
			return &ParamMsg{Round: 1, Params: big(1), Denied: true, Reason: "stale", Cfg: RoundConfig{ConfigDigest: "d"}}
		},
	}
	params := map[string]*ParamMsg{"announce": testParamMsg(), "denied": {Denied: true, Reason: "no further rounds"}}

	edge, err := NewExact(AggWeighted)
	if err != nil {
		t.Fatal(err)
	}
	edge.Begin([]*tensor.Tensor{tensor.New(3)})
	edge.FoldClient(0, []*tensor.Tensor{tensor.FromSlice([]float64{1, -2, 0.5}, 3)}, 2)
	partial := &UpdateMsg{ClientID: 1, Round: 3, Partial: edge.TakePartial().Wire()}
	updates := testUpdateMsgs()
	updates["partial"] = partial
	dirtyUpdates := map[string]func() *UpdateMsg{
		"larger": func() *UpdateMsg { return &UpdateMsg{ClientID: 7, Round: 8, Weight: 3, Delta: big(5)} },
		"sparse": func() *UpdateMsg {
			return &UpdateMsg{Sparse: []SparseTensorWire{
				{Shape: []int{64}, Indices: make([]int32, 40), Values: make([]float64, 40)},
				{Shape: []int{9, 9}, Indices: []int32{3}, Values: []float64{1}},
			}}
		},
		"partial": func() *UpdateMsg { return &UpdateMsg{Delta: big(2), Partial: partial.Partial} },
	}

	for _, codec := range []string{CodecGob, CodecBinary} {
		var buf bytes.Buffer
		s := bufSession(codec, &buf)
		for name, pm := range params {
			for dname, dirty := range dirtyParams {
				label := codec + "/" + name + "/into-" + dname
				var clean ParamMsg
				got := dirty()
				for _, m := range []*ParamMsg{&clean, got} {
					if err := s.WriteParam(pm); err != nil {
						t.Fatal(err)
					}
					if err := s.ReadParam(m); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				checkParamEqual(t, label, &clean, got)
				if !reflect.DeepEqual(&clean, got) {
					t.Fatalf("%s: dirty decode %+v, clean decode %+v", label, got, &clean)
				}
			}
		}
		for name, um := range updates {
			for dname, dirty := range dirtyUpdates {
				label := codec + "/" + name + "/into-" + dname
				var clean UpdateMsg
				got := dirty()
				for _, m := range []*UpdateMsg{&clean, got} {
					if err := writeUpdate(s, um); err != nil {
						t.Fatal(err)
					}
					if err := s.ReadUpdate(m); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				checkUpdateEqual(t, label, &clean, got)
				if !reflect.DeepEqual(exportedUpdate(&clean), exportedUpdate(got)) {
					t.Fatalf("%s: dirty decode %+v, clean decode %+v", label, got, &clean)
				}
			}
		}
	}
}

// TestWriteUpdateTensorsParity pins the direct (zero-intermediate) encode
// against the materializing one: for dense and sparse inputs,
// WriteUpdateTensors must put the same decoded values on the wire as
// building the UpdateMsg first — on both codecs.
func TestWriteUpdateTensorsParity(t *testing.T) {
	for name, ts := range map[string][]*tensor.Tensor{
		"dense":  {tensor.FromSlice([]float64{1, -2, 3.5, 4, 5, -6}, 3, 2)},
		"sparse": {tensor.FromSlice([]float64{0, 0, 0, 0, 0, 0, 9.5, 0}, 8)},
	} {
		want := &UpdateMsg{ClientID: 4, Round: 2, Weight: 11}
		want.Delta, want.Sparse = EncodeUpdate(ts)
		for _, codec := range []string{CodecBinary, CodecGob} {
			var buf bytes.Buffer
			s := bufSession(codec, &buf)
			if err := s.WriteUpdateTensors(4, 2, 11, ts); err != nil {
				t.Fatalf("%s/%s: %v", codec, name, err)
			}
			var direct UpdateMsg
			if err := s.ReadUpdate(&direct); err != nil {
				t.Fatalf("%s/%s: %v", codec, name, err)
			}
			checkUpdateEqual(t, codec+"/"+name, want, &direct)
		}
	}
}

// codecTestRound opens round 0 of a two-parameter model on srv in the
// background, one session, no deadline.
func codecTestRound(t *testing.T, srv *RoundServer) <-chan RoundResult {
	done := make(chan RoundResult, 1)
	go func() {
		params := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0}, 2)}
		cfg := RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 1}
		res, err := srv.StreamRound(0, params, cfg, NewFedSGD(), RoundOptions{Clients: 1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	return done
}

// TestCodecMismatchFailsTheSession pairs each codec's client with the other
// codec's server. Nothing is negotiated, so there is no fallback: the
// client fails at the round announcement with an error naming both codecs,
// and the server's round counts the session failed.
func TestCodecMismatchFailsTheSession(t *testing.T) {
	for _, tc := range []struct{ server, client string }{
		{CodecBinary, CodecGob},
		{CodecGob, CodecBinary},
	} {
		n := simnet.New(1, nil)
		ln, err := n.Listen("server")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewRoundServerOn(ln)
		srv.Codec = tc.server
		done := codecTestRound(t, srv)
		_, err = AbandonSession("server", ClientOptions{Dial: n.Dialer("c0"), Codec: tc.client})
		if want := fmt.Sprintf("this end speaks %s, its peer %s", tc.client, tc.server); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s client, %s server: got %v, want an error saying %q", tc.client, tc.server, err, want)
		}
		if res := <-done; res.Failed != 1 || res.Folded != 0 {
			t.Errorf("%s client, %s server: round %+v, want the session counted failed", tc.client, tc.server, res)
		}
		srv.Close()
	}
}

// TestStreamRoundRefusesUnknownCodec: with a codec no session can be opened
// in, every session would end before admission and a deadline-free round
// would wait forever, so the round is refused before it opens.
func TestStreamRoundRefusesUnknownCodec(t *testing.T) {
	n := simnet.New(1, nil)
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRoundServerOn(ln)
	srv.Codec = "msgpack"
	defer srv.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := srv.StreamRound(0, []*tensor.Tensor{tensor.New(1)}, RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1}, NewFedSGD(), RoundOptions{Clients: 1})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), `unknown wire codec "msgpack"`) {
			t.Fatalf("got %v, want the unknown-codec refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a round with an unknown codec is still waiting for sessions")
	}
}

// TestBinaryFrameMemoryTracksBytesReceived plays a peer that sends a frame
// header claiming maxFramePayload (512 MiB) and hangs up, against the
// server's update read and the client's announcement read: the reader's
// memory must follow the bytes that arrived, not the length claimed.
func TestBinaryFrameMemoryTracksBytesReceived(t *testing.T) {
	allocated := func(run func()) uint64 {
		// Two collections empty frameBufPool, so neither read can hide
		// behind a buffer the other left there.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	claim := func(kind byte) []byte {
		h := frameBytes(binaryVersion, kind, nil)
		binary.LittleEndian.PutUint32(h[8:12], maxFramePayload)
		return h
	}

	n := simnet.New(1, nil)
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRoundServerOn(ln)
	srv.Codec = CodecBinary
	defer srv.Close()
	if got := allocated(func() {
		done := codecTestRound(t, srv)
		conn, err := n.Dialer("c0")("server")
		if err != nil {
			t.Fatal(err)
		}
		var pm ParamMsg
		if err := (&binarySession{r: conn}).ReadParam(&pm); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(claim(kindUpdate)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if res := <-done; res.Failed != 1 {
			t.Fatalf("round %+v, want the hung-up session counted failed", res)
		}
	}); got >= 1<<20 {
		t.Errorf("server update read allocated %d bytes for a 12-byte frame", got)
	}

	if got := allocated(func() {
		cc, sc := net.Pipe()
		go func() {
			sc.Write(claim(kindParam))
			sc.Close()
		}()
		dial := func(string) (net.Conn, error) { return cc, nil }
		if _, err := AbandonSession("server", ClientOptions{Dial: dial, Codec: CodecBinary}); err == nil {
			t.Fatal("a truncated announcement was accepted")
		}
	}); got >= 1<<20 {
		t.Errorf("client announcement read allocated %d bytes for a 12-byte frame", got)
	}
}

// frameBytes assembles a raw binary frame for hostile-input tests.
func frameBytes(version, kind byte, payload []byte) []byte {
	b := append([]byte{}, binaryMagic[:]...)
	b = append(b, version, kind, 0, 0)
	b = appendU32(b, uint32(len(payload)))
	return append(b, payload...)
}

// TestBinaryHostileFrames feeds corrupted frames to the binary decode
// path: every case must return an error — never panic, never a partial
// message.
func TestBinaryHostileFrames(t *testing.T) {
	goodPayload := appendAckPayload(nil, &AckMsg{Accepted: true, Reason: "ok"})
	good := frameBytes(binaryVersion, kindAck, goodPayload)
	readAck := func(s *binarySession) error { return s.ReadAck(new(AckMsg)) }
	readParam := func(s *binarySession) error { return s.ReadParam(new(ParamMsg)) }
	// readValid reads an announcement as a client takes it: decoded, then
	// validated before anything is trained on it.
	readValid := func(s *binarySession) error {
		var pm ParamMsg
		if err := s.ReadParam(&pm); err != nil {
			return err
		}
		return pm.Validate()
	}

	// announce is a round announcement whose precision slot, between the
	// scenario and the config digest, reads prec, under scenario sc.
	announce := func(prec string, sc dataset.Scenario) []byte {
		b := appendI64(nil, 0)                           // Round
		b = appendU8(b, 0)                               // Denied
		b = appendStr(b, "")                             // Reason
		b = appendI64(appendI64(b, 1), 1)                // BatchSize, LocalIters
		b = appendI64(appendF64(b, 0.1), 1)              // LR, TotalRounds
		b = appendF64(appendStr(b, sc.Name), sc.Alpha)   // Scenario.Name, .Alpha
		b = appendI64(appendI64(b, 0), 0)                // Scenario.Shards, .Period
		b = appendStr(appendStr(b, prec), "")            // precision, ConfigDigest
		b = appendDenseSection(b, testParamMsg().Params) // Params
		return frameBytes(binaryVersion, kindParam, b)
	}
	// A slot the old default wrote, or the float64 it named, still decodes.
	for _, prec := range []string{"", "fp64"} {
		if err := readValid(&binarySession{r: bytes.NewReader(announce(prec, dataset.Scenario{}))}); err != nil {
			t.Fatalf("precision slot %q: %v", prec, err)
		}
	}

	cases := []struct {
		name string
		raw  []byte
		want string
		read func(*binarySession) error
	}{
		{"empty stream", nil, "frame header", readAck},
		{"truncated header", good[:7], "frame header", readAck},
		{"bad magic", append([]byte{'g', 'o', 'b', '!'}, good[4:]...), "magic", readAck},
		{"bad version", frameBytes(99, kindAck, goodPayload), "version", readAck},
		{"wrong kind", frameBytes(binaryVersion, kindParam, goodPayload), "kind", readAck},
		{"truncated payload", good[:len(good)-2], "payload", readAck},
		{"trailing payload bytes", frameBytes(binaryVersion, kindAck, append(append([]byte{}, goodPayload...), 0xEE)), "trailing", readAck},
		{"fp32 precision slot", announce("fp32", dataset.Scenario{}), `announced precision "fp32" unknown`, readParam},
		{"NaN dirichlet alpha", announce("", dataset.Scenario{Name: dataset.ScenarioDirichlet, Alpha: math.NaN()}), "dirichlet alpha NaN is not finite", readValid},
	}
	// Oversized declared length: stamp a length beyond the cap.
	over := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(over[8:12], maxFramePayload+1)
	cases = append(cases, struct {
		name string
		raw  []byte
		want string
		read func(*binarySession) error
	}{"oversized length", over, "exceeds", readAck})

	for _, tc := range cases {
		err := tc.read(&binarySession{r: bytes.NewReader(tc.raw)})
		if err == nil {
			t.Fatalf("%s: hostile frame decoded without error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestBinaryVersion1ParamRefused pins the version bump that came with
// dropping two strings from the param payload: a stale version-1 peer's
// announcement is refused at the frame header, never misparsed.
func TestBinaryVersion1ParamRefused(t *testing.T) {
	raw := frameBytes(1, kindParam, appendParamPayload(nil, testParamMsg()))
	var pm ParamMsg
	err := (&binarySession{r: bytes.NewReader(raw)}).ReadParam(&pm)
	if err == nil || !strings.Contains(err.Error(), "unsupported binary codec version 1") {
		t.Fatalf("version-1 param frame: got %v, want the unsupported-version error", err)
	}
}

// TestBinaryHostileTensorSections feeds structurally hostile tensor
// sections through the update decode path: bad counts, bad geometry,
// impossible sparse populations, unknown encodings.
func TestBinaryHostileTensorSections(t *testing.T) {
	head := func() []byte {
		b := appendI64(nil, 9) // ClientID
		b = appendI64(b, 0)    // Round
		return appendF64(b, 1) // Weight
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"tensor count over cap", appendI64(head(), maxWireTensors+1), "declares"},
		// -1 is the partial sentinel (see partialSentinel), so the negative
		// rejection is pinned at -2 and the sentinel gets its own hostile
		// cases below.
		{"negative tensor count", appendI64(head(), -2), "declares"},
		{"truncated partial", appendI64(head(), partialSentinel), "truncated"},
		{"partial tensor count over cap", func() []byte {
			b := appendI64(head(), partialSentinel)
			b = appendStr(b, AggFedSGD)
			b = appendI64(b, 1) // Clients
			b = appendU8(b, 0)  // no WSum
			return appendI64(b, maxWireTensors+1)
		}(), "declares"},
		{"partial mantissa over cap", func() []byte {
			b := appendI64(head(), partialSentinel)
			b = appendStr(b, AggFedSGD)
			b = appendI64(b, 1) // Clients
			b = appendU8(b, 0)  // no WSum
			b = appendI64(b, 1) // one tensor
			b = appendU8(b, 1)  // rank 1
			b = appendI64(b, 1) // dim 1
			b = appendU8(b, 0)  // spec
			b = appendU8(b, 0)  // neg
			b = appendI64(b, 0) // exp
			return appendU32(b, exactMantBytes+1)
		}(), "mantissa"},
		{"rank over cap", func() []byte {
			b := appendI64(head(), 1)
			b = appendU8(b, encDense)
			return appendU8(b, maxWireDims+1)
		}(), "rank"},
		{"negative dimension", func() []byte {
			b := appendI64(head(), 1)
			b = appendU8(b, encDense)
			b = appendU8(b, 1)
			return appendI64(b, -4)
		}(), "outside"},
		{"overflowing shape", func() []byte {
			b := appendI64(head(), 1)
			b = appendU8(b, encDense)
			b = appendU8(b, 2)
			b = appendI64(b, maxWireElems)
			return appendI64(b, maxWireElems)
		}(), "exceeds"},
		{"dense payload missing", func() []byte {
			b := appendI64(head(), 1)
			b = appendTensorHeader(b, encDense, []int{1 << 20})
			return b // declares 2^20 floats, carries none
		}(), "truncated"},
		{"sparse overpopulated", func() []byte {
			b := appendI64(head(), 1)
			b = appendTensorHeader(b, encSparse, []int{4})
			return appendI64(b, 5) // 5 nonzeros in a 4-element tensor
		}(), "declares"},
		{"unknown encoding", func() []byte {
			b := appendI64(head(), 1)
			b = appendU8(b, 0xEE)
			return appendU8(b, 0)
		}(), "unknown"},
		// Tags 2 and 3 once carried int8/int16 quantized codes (a scale,
		// then one code per element); updates cross the wire exact, so
		// both are refused like any other unknown tag.
		{"int8 quantized tag", func() []byte {
			b := appendI64(head(), 1)
			b = appendTensorHeader(b, 2, []int{2})
			b = appendF64(b, 0.5)
			return append(b, 1, 0xFF)
		}(), "unknown binary tensor encoding"},
		{"int16 quantized tag", func() []byte {
			b := appendI64(head(), 1)
			b = appendTensorHeader(b, 3, []int{1})
			b = appendF64(b, 0.5)
			return appendU16(b, 7)
		}(), "unknown binary tensor encoding"},
		{"trailing bytes", func() []byte {
			b := appendI64(head(), 0)
			return append(b, 0xAB)
		}(), "trailing"},
	}
	for _, tc := range cases {
		var m UpdateMsg
		err := parseUpdatePayload(tc.payload, &m)
		if err == nil {
			t.Fatalf("%s: hostile section decoded without error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Sparse parameters must be refused at the announcement gate.
	qp := appendI64(nil, 0) // Round
	qp = appendU8(qp, 0)    // Denied
	qp = appendStr(qp, "")  // Reason
	qp = appendI64(qp, 1)   // BatchSize
	qp = appendI64(qp, 1)   // LocalIters
	qp = appendF64(qp, 0.1) // LR
	qp = appendI64(qp, 1)   // TotalRounds
	qp = appendStr(qp, "")  // Scenario.Name
	qp = appendF64(qp, 0)   // Scenario.Alpha
	qp = appendI64(qp, 0)   // Scenario.Shards
	qp = appendI64(qp, 0)   // Scenario.Period
	qp = appendStr(qp, "")  // precision
	qp = appendStr(qp, "")  // ConfigDigest
	qp = appendUpdateSection(qp, &UpdateMsg{Sparse: SparseFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{0, 1}, 2)})})
	var pm ParamMsg
	if err := parseParamPayload(qp, &pm); err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("sparse announcement params must be refused, got %v", err)
	}
}

// TestQuantizeRoundTrip pins the quantization error bound: without
// residual state, every code is within ±qmax and every dequantized value is
// within Scale/2 of the original.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(11)
	src := tensor.New(257)
	for i := range src.Data() {
		src.Data()[i] = rng.Float64()*4 - 2
	}
	for _, bits := range []int{QuantInt8, QuantInt16} {
		ws := QuantizeUpdate([]*tensor.Tensor{src}, bits, nil)
		if len(ws) != 1 {
			t.Fatalf("bits=%d: %d wire tensors", bits, len(ws))
		}
		w := ws[0]
		for i, q := range w.Q {
			if math.Abs(float64(q)) > qmax(bits) {
				t.Fatalf("bits=%d: code %d at offset %d outside ±%g", bits, q, i, qmax(bits))
			}
		}
		back := w.Dequantize()
		bound := w.Scale/2 + 1e-15
		for i, v := range src.Data() {
			if d := math.Abs(back.Data[i] - v); d > bound {
				t.Fatalf("bits=%d: element %d error %g exceeds Scale/2=%g", bits, i, d, bound)
			}
		}
	}
}

// TestQuantizeErrorFeedback pins the DSSGD-style residual contract: with a
// QuantState, the rounding error banked in round r is repaid in round r+1,
// so the cumulative sum of dequantized updates tracks the cumulative true
// signal within one quantization step — instead of drifting by R·Scale/2
// over R rounds.
func TestQuantizeErrorFeedback(t *testing.T) {
	// A constant update whose values sit between int8 steps, the worst
	// case for repeated stateless rounding.
	src := tensor.FromSlice([]float64{0.7007, -0.31113, 0.00923, 1}, 4)
	const rounds = 64
	st := &QuantState{}
	acc := make([]float64, src.Len())
	var scale float64
	for r := 0; r < rounds; r++ {
		w := QuantizeUpdate([]*tensor.Tensor{src}, QuantInt8, st)[0]
		d := w.Dequantize()
		for i := range acc {
			acc[i] += d.Data[i]
		}
		if w.Scale > scale {
			scale = w.Scale
		}
	}
	for i, v := range src.Data() {
		drift := math.Abs(acc[i] - float64(rounds)*v)
		if drift > scale {
			t.Fatalf("element %d drifted %g over %d rounds (scale %g) — error feedback not repaying", i, drift, rounds, scale)
		}
	}

	// The same run without state is allowed to drift — proving the
	// feedback is what holds the line, not luck.
	accRaw := make([]float64, src.Len())
	for r := 0; r < rounds; r++ {
		w := QuantizeUpdate([]*tensor.Tensor{src}, QuantInt8, nil)[0]
		d := w.Dequantize()
		for i := range accRaw {
			accRaw[i] += d.Data[i]
		}
	}
	worst := 0.0
	for i, v := range src.Data() {
		if drift := math.Abs(accRaw[i] - float64(rounds)*v); drift > worst {
			worst = drift
		}
	}
	if worst <= scale {
		t.Logf("stateless drift %g stayed under one scale — benign vectors, feedback still pinned above", worst)
	}
}

// TestQuantizeZeroTensor pins the all-zero edge: zero scale, zero codes,
// residuals untouched.
func TestQuantizeZeroTensor(t *testing.T) {
	st := &QuantState{}
	ws := QuantizeUpdate([]*tensor.Tensor{tensor.New(5)}, QuantInt8, st)
	if ws[0].Scale != 0 {
		t.Fatalf("zero tensor got scale %g", ws[0].Scale)
	}
	if len(ws[0].Q) != 5 {
		t.Fatalf("zero tensor got %d codes, want 5", len(ws[0].Q))
	}
	for _, q := range ws[0].Q {
		if q != 0 {
			t.Fatal("zero tensor got nonzero codes")
		}
	}
}

// TestBinaryEncodeZeroAlloc pins the shared-pool contract: once the frame
// pool is warm, encoding a dense or sparse update through the binary
// session allocates nothing — the scratch is the sync.Pool's, not the
// garbage collector's.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	dense := []*tensor.Tensor{tensor.New(2048), tensor.New(64)}
	rng := tensor.NewRNG(5)
	for _, ts := range dense {
		for i := range ts.Data() {
			ts.Data()[i] = rng.Float64() - 0.5
		}
	}
	sparse := []*tensor.Tensor{tensor.New(2048)}
	for i := 0; i < 2048; i += 64 {
		sparse[0].Data()[i] = rng.Float64()
	}
	s := &binarySession{w: io.Discard}
	for name, ts := range map[string][]*tensor.Tensor{"dense": dense, "sparse": sparse} {
		ts := ts
		// Warm the pool so the buffer has steady-state capacity.
		if err := s.WriteUpdateTensors(0, 0, 1, ts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.WriteUpdateTensors(0, 0, 1, ts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: binary encode allocates %.1f objects/op at steady state, want 0", name, allocs)
		}
	}
}

// TestBinaryCodecParityOverFabric runs the same seeded single-client round
// twice — once per codec — through the full deployment path (RoundServer,
// real client training, fabric transport): the exact binary codec must
// leave the global model bit-identical to the gob oracle's.
func TestBinaryCodecParityOverFabric(t *testing.T) {
	run := func(codec string) []float64 {
		spec, err := dataset.Get("cancer")
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.New(spec, 42)
		n := simnet.New(42, nil)
		ln, err := n.Listen("server")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewRoundServerOn(ln)
		srv.Codec = codec
		defer srv.Close()

		params := tensorsForSpec(t, spec)
		cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}
		done := make(chan error, 1)
		go func() {
			done <- runClient("server", 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 42,
				ClientOptions{Dial: n.Dialer("c0"), Codec: codec})
		}()
		if _, err := srv.StreamRound(0, params, cfg, NewFedSGD(), RoundOptions{Clients: 1}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range params {
			flat = append(flat, p.Data()...)
		}
		return flat
	}
	gobParams := run("")
	binParams := run(CodecBinary)
	if !bitsEqual(gobParams, binParams) {
		t.Fatal("binary codec round diverged from the gob oracle — the exact codec must be bit-transparent")
	}
}

// BenchmarkWire measures per-update encode and decode cost and wire bytes
// for a CNN-scale dense update: the gob oracle vs the binary codec. The
// binary encode rows must stay allocation-free at
// steady state (the pooled-scratch contract TestBinaryEncodeZeroAlloc
// asserts); wire-B is the bytes-per-message acceptance metric.
func BenchmarkWire(b *testing.B) {
	const n = 100000
	rng := tensor.NewRNG(3)
	src := tensor.New(n)
	for i := range src.Data() {
		src.Data()[i] = rng.Float64()*2 - 1
	}
	ts := []*tensor.Tensor{src}

	codecs := []string{CodecGob, CodecBinary}
	for _, codec := range codecs {
		b.Run("encode/"+codec, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				s := bufSession(codec, &buf)
				if err := s.WriteUpdateTensors(0, 0, 1, ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "wire-B")
		})
	}
	for _, codec := range codecs {
		var buf bytes.Buffer
		if err := bufSession(codec, &buf).WriteUpdateTensors(0, 0, 1, ts); err != nil {
			b.Fatal(err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		b.Run("decode/"+codec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var m UpdateMsg
				var s wireSession
				if codec == CodecBinary {
					s = &binarySession{r: bytes.NewReader(raw)}
				} else {
					s = newGobSession(bytes.NewReader(raw), io.Discard)
				}
				if err := s.ReadUpdate(&m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(raw)), "wire-B")
		})
	}
}
