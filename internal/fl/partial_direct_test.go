package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Tests for the in-place partial path: an edge writes its accumulators
// straight into the partial frame (appendPartialDirect) and the root parses
// the frame straight into reused accumulators (readPartialInto). The
// oracle is the wire-struct path they replace: Partial.Wire, appendPartial,
// parsePartial (partial_oracle_test.go), PartialWire.Validate and
// PartialFromWire.

// randomExactVec builds an n-element accumulator whose elements cover what
// a partial can carry: ±0, ±Inf, NaN, negative and positive sums of
// addends from 2^-1074 to 2^1023, and wire scalars up to the envelope's
// top bit, so the shared window spans anywhere from none to 36 limbs.
func randomExactVec(g *tensor.RNG, n int) *ExactVec {
	v := NewExactVec(n)
	finite := func() float64 {
		x := math.Ldexp(1+g.Float64(), g.Intn(2098)-1075) // subnormals to the top binade
		if g.Intn(2) == 0 {
			x = -x
		}
		return x
	}
	for i := 0; i < n; i++ {
		switch g.Intn(9) {
		case 0: // +0 from a cancelled sum
			x := finite()
			v.Add(i, x)
			v.Add(i, -x)
		case 1: // −0 folds as an empty sum
			v.Add(i, math.Copysign(0, -1))
		case 2:
			v.Add(i, finite())
			v.Add(i, math.Inf(1))
		case 3:
			v.Add(i, math.Inf(-1))
		case 4:
			v.Add(i, math.NaN())
			v.Add(i, finite())
		case 5: // a wire scalar anywhere in the envelope, then addends on it
			exp := int64(exactMinExp + g.Intn(exactTopBit-8))
			top := int(exp-exactMinExp) + g.Intn(min(64*8, exactTopBit-int(exp-exactMinExp)))
			w := ExactScalarWire{Neg: g.Intn(2) == 0, Exp: exp, Mant: envelopeMant(exp, top)}
			if err := v.SetScalarWire(i, w); err != nil {
				panic(err)
			}
			v.Add(i, finite())
		default:
			for k := g.Intn(6); k >= 0; k-- {
				v.Add(i, finite())
			}
		}
	}
	return v
}

// directShapes is the geometry of the random partials: a matrix, a vector
// and a rank-0 scalar.
var directShapes = [][]int{{3, 2}, {4}, {}}

// randomPartial builds an edge partial under rule with random sums; it
// carries a weight sum exactly when the rule is weighted.
func randomPartial(g *tensor.RNG, rule string) *Partial {
	p := &Partial{Rule: rule, Clients: g.Intn(1 << 20), Shapes: directShapes}
	for _, sh := range directShapes {
		n := 1
		for _, d := range sh {
			n *= d
		}
		p.Sums = append(p.Sums, randomExactVec(g, n))
	}
	if rule == AggWeighted {
		p.WSum = randomExactVec(g, 1)
	}
	return p
}

// checkPartialMatchesOracle asserts that a partial parsed in place holds
// what PartialFromWire installs from the oracle's wire body: the same
// header and geometry, every element's Round bits, and equal canonical
// bytes.
func checkPartialMatchesOracle(t *testing.T, got *Partial, w *PartialWire) {
	t.Helper()
	want, err := PartialFromWire(w)
	if err != nil {
		t.Fatalf("oracle partial does not install: %v", err)
	}
	if got == nil {
		t.Fatal("the in-place parse produced no partial")
	}
	if got.Rule != want.Rule || got.Clients != want.Clients || (got.WSum == nil) != (want.WSum == nil) || len(got.Sums) != len(want.Sums) {
		t.Fatalf("partial header %s/%d/%v/%d, oracle %s/%d/%v/%d", got.Rule, got.Clients, got.WSum != nil, len(got.Sums),
			want.Rule, want.Clients, want.WSum != nil, len(want.Sums))
	}
	roundsEqual := func(what string, a, b *ExactVec) {
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d elements, oracle %d", what, a.Len(), b.Len())
		}
		for j := 0; j < a.Len(); j++ {
			if x, y := a.Round(j), b.Round(j); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s element %d rounds to %v, oracle %v", what, j, x, y)
			}
		}
	}
	for i := range want.Sums {
		if !shapesEqual(got.Shapes[i], want.Shapes[i]) {
			t.Fatalf("tensor %d shape %v, oracle %v", i, got.Shapes[i], want.Shapes[i])
		}
		roundsEqual("sum", got.Sums[i], want.Sums[i])
	}
	if want.WSum != nil {
		roundsEqual("weight sum", got.WSum, want.WSum)
	}
	if !bytes.Equal(appendPartialDirect(nil, got), appendPartial(nil, want.Wire())) {
		t.Fatal("in-place partial's canonical bytes differ from the oracle's")
	}
}

// TestDirectPartialKeepsBits holds the in-place path to the wire-struct
// one on random accumulators under every rule: the edge's frame is
// byte-identical to the one built from Partial.Wire, and parsing it into a
// root scratch warmed by every earlier frame installs the same sums —
// element by element, and merged into a root accumulator.
func TestDirectPartialKeepsBits(t *testing.T) {
	g := tensor.NewRNG(48)
	var frame, viaWire bytes.Buffer
	edge, oracleEdge := &binarySession{w: &frame}, &binarySession{w: &viaWire}
	root := &binarySession{r: &frame}
	var warm UpdateMsg
	rules := []string{AggFedSGD, AggFedAvg, AggWeighted}
	for trial := 0; trial < 300; trial++ {
		p := randomPartial(g, rules[trial%len(rules)])
		if err := edge.WritePartial(trial, 7, p); err != nil {
			t.Fatal(err)
		}
		if err := writeUpdate(oracleEdge, &UpdateMsg{ClientID: trial, Round: 7, Partial: p.Wire()}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame.Bytes(), viaWire.Bytes()) {
			t.Fatalf("trial %d: the edge's frame differs from the one built from Partial.Wire", trial)
		}
		viaWire.Reset()
		if err := root.ReadUpdate(&warm); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := warm.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if warm.ClientID != trial || warm.Round != 7 || warm.Partial != nil {
			t.Fatalf("trial %d: decoded header %d/%d, gob body %v", trial, warm.ClientID, warm.Round, warm.Partial)
		}
		checkPartialMatchesOracle(t, warm.partial, p.Wire())

		want, err := PartialFromWire(p.Wire())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Sums {
			base := randomExactVec(g, want.Sums[i].Len())
			a, b := NewExactVec(base.Len()), NewExactVec(base.Len())
			for _, v := range []*ExactVec{a, b} {
				if err := v.Merge(base); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Merge(warm.partial.Sums[i]); err != nil {
				t.Fatal(err)
			}
			if err := b.Merge(want.Sums[i]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < a.Len(); j++ {
				if x, y := a.Round(j), b.Round(j); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("trial %d tensor %d element %d: merge rounds to %v, oracle %v", trial, i, j, x, y)
				}
			}
		}
	}
}

// hostilePartialRows are edge frames the root must refuse, each with the
// text its error carries on the in-place path and on the oracle path
// alike. good is a valid weighted partial over two tensors of 4 and 2
// elements.
func hostilePartialRows(good *PartialWire) []struct {
	name, want string
	payload    []byte
} {
	payload := func(mutate func(w *PartialWire)) []byte {
		w := *good
		w.Sums = make([]ExactTensorWire, len(good.Sums))
		for i, s := range good.Sums {
			w.Sums[i] = ExactTensorWire{Shape: s.Shape, Elems: append([]ExactScalarWire(nil), s.Elems...)}
		}
		mutate(&w)
		return appendUpdatePayload(nil, &UpdateMsg{ClientID: 1, Round: 0, Partial: &w})
	}
	intact := payload(func(*PartialWire) {})
	// Clients is the i64 after the 32-byte header and the rule string.
	clients := append([]byte(nil), intact...)
	binary.LittleEndian.PutUint64(clients[32+2+len(good.Rule):], 1<<31+1)
	return []struct {
		name, want string
		payload    []byte
	}{
		{"truncated mid-scalar", "truncated", intact[:len(intact)-3]},
		{"spec 4", "unknown special code 4", payload(func(w *PartialWire) { w.Sums[0].Elems[1].Spec = 4 })},
		{"289-byte mantissa", "mantissa of 289 bytes exceeds 288", payload(func(w *PartialWire) {
			w.Sums[1].Elems[0] = ExactScalarWire{Exp: 0, Mant: make([]byte, exactMantBytes+1)}
		})},
		{"exponent -1075", "exponent -1075", payload(func(w *PartialWire) {
			w.Sums[0].Elems[2] = ExactScalarWire{Exp: exactMinExp - 1, Mant: []byte{1}}
		})},
		{"leading bit above 2239", "leading bit", payload(func(w *PartialWire) {
			w.Sums[1].Elems[1] = ExactScalarWire{Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit+1)}
		})},
		{"element count off the round's params", "has 3 elements, parameter has 4", payload(func(w *PartialWire) {
			w.Sums[0] = ExactTensorWire{Shape: []int{3}, Elems: w.Sums[0].Elems[:3]}
		})},
		{"weight sum off the rule", "weight-sum presence", payload(func(w *PartialWire) { w.HasWSum = false })},
		{"unknown rule", `unknown rule "median"`, payload(func(w *PartialWire) { w.Rule = "median" })},
		{"client count above 2^31", "client count", clients},
	}
}

// TestDirectPartialRefusals sends each hostile edge frame to a root: each
// is refused with the error the wire-struct path gives it, and a round
// that receives all of them beside one good partial leaves the root
// aggregator's Count and every Round bit where the good partial alone
// leaves them.
func TestDirectPartialRefusals(t *testing.T) {
	params := []*tensor.Tensor{tensor.FromSlice([]float64{0.5, -1, 2, 0}, 2, 2), tensor.FromSlice([]float64{3, -4}, 2)}
	edge, err := NewExact(AggWeighted)
	if err != nil {
		t.Fatal(err)
	}
	edge.Begin(params)
	edge.FoldClient(0, []*tensor.Tensor{tensor.FromSlice([]float64{1e-3, 2, -7, 1e9}, 2, 2), tensor.FromSlice([]float64{-1e-300, 5}, 2)}, 3)
	edge.FoldClient(1, []*tensor.Tensor{tensor.FromSlice([]float64{-1e-3, 0.25, 6, 1}, 2, 2), tensor.FromSlice([]float64{2, 1e300}, 2)}, 2)
	good := edge.TakePartial()
	rows := hostilePartialRows(good.Wire())
	wire := WireFromTensors(params)

	for _, row := range rows {
		var m UpdateMsg
		direct := (&binarySession{r: bytes.NewReader(frameBytes(binaryVersion, kindUpdate, row.payload))}).ReadUpdate(&m)
		if direct == nil {
			_, direct = m.decodePartial(wire)
		}
		om, oracle := oraclePartialUpdate(row.payload)
		if oracle == nil {
			oracle = om.Validate()
		}
		if oracle == nil {
			var p *Partial
			if p, oracle = PartialFromWire(om.Partial); oracle == nil {
				oracle = partialMatchesParams(p, wire)
			}
		}
		for path, err := range map[string]error{"in-place": direct, "oracle": oracle} {
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s: %s path error %v, want one mentioning %q", row.name, path, err, row.want)
			}
		}
		if errors.Is(oracle, ErrExactEnvelope) != errors.Is(direct, ErrExactEnvelope) {
			t.Errorf("%s: envelope class differs: in-place %v, oracle %v", row.name, direct, oracle)
		}
	}

	// round folds the good partial from edge 0 and, when hostile is set,
	// every row from its own session, and returns the root's state.
	round := func(hostile bool) (int, []uint64) {
		n := simnet.New(1, nil)
		ln, err := n.Listen("root")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewRoundServerOn(ln)
		srv.Codec = CodecBinary
		defer srv.Close()
		root, _ := NewExact(AggWeighted)
		sessions := 1
		if hostile {
			sessions += len(rows)
		}
		rootParams := tensor.CloneAll(params)
		done := make(chan RoundResult, 1)
		go func() {
			res, err := srv.StreamRound(0, rootParams, RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 1},
				root, RoundOptions{Clients: sessions, MinQuorum: 1})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		if hostile {
			for i, row := range rows {
				conn, err := n.Dialer("hostile" + string(rune('a'+i)))("root")
				if err != nil {
					t.Fatal(err)
				}
				sendHostileFrame(t, conn, frameBytes(binaryVersion, kindUpdate, row.payload))
			}
		}
		if err := SendPartial("root", 0, 0, good, ClientOptions{Dial: n.Dialer("edge0"), Codec: CodecBinary}); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if want := sessions - 1; res.Folded != 1 || res.Failed != want {
			t.Fatalf("round %+v, want the good partial folded and %d refused", res, want)
		}
		var state []uint64
		for _, s := range append(append([]*ExactVec(nil), root.sums...), root.wsum) {
			for j := 0; j < s.Len(); j++ {
				state = append(state, math.Float64bits(s.Round(j)))
			}
		}
		for _, p := range rootParams {
			for _, x := range p.Data() {
				state = append(state, math.Float64bits(x))
			}
		}
		return root.Count(), state
	}
	wantN, want := round(false)
	gotN, got := round(true)
	if gotN != wantN || len(got) != len(want) {
		t.Fatalf("hostile frames moved the root: count %d, want %d", gotN, wantN)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hostile frames moved the root's bit %d: %#x, want %#x", i, got[i], want[i])
		}
	}
}

// sendHostileFrame plays one edge session that answers the announcement
// with a raw frame, then reads whatever receipt comes back.
func sendHostileFrame(t *testing.T, conn net.Conn, frame []byte) {
	t.Helper()
	defer conn.Close()
	s := &binarySession{r: conn, w: conn}
	var pm ParamMsg
	if err := s.ReadParam(&pm); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var ack AckMsg
	if err := s.ReadAck(&ack); err == nil && ack.Accepted {
		t.Fatal("the root acknowledged a hostile partial")
	}
}

// TestPartialFrameMemoryTracksBytes pins the in-place parser's sizing: a
// 66-byte update payload whose one partial tensor declares 2^20 elements
// and carries no scalar is refused as truncated before anything is sized
// from the count.
func TestPartialFrameMemoryTracksBytes(t *testing.T) {
	b := appendI64(nil, 0) // ClientID
	b = appendI64(b, 0)    // Round
	b = appendF64(b, 0)    // Weight
	b = appendI64(b, partialSentinel)
	b = appendStr(b, AggFedSGD)
	b = appendI64(b, 1) // Clients
	b = appendU8(b, 0)  // no weight sum
	b = appendI64(b, 1) // one tensor
	b = appendU8(b, 1)  // rank 1
	b = appendI64(b, 1<<20)
	if len(b) != 66 {
		t.Fatalf("payload is %d bytes, want 66", len(b))
	}
	s := &binarySession{r: bytes.NewReader(frameBytes(binaryVersion, kindUpdate, b))}
	var m UpdateMsg
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.ReadUpdate(&m)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want the frame refused as truncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 66-byte payload allocated %d bytes", grew)
	}
}

// cancerPartialRound is tree-100k's edge geometry: the cancer MLP's
// parameters and one shard's worth of noised client updates folded into
// an edge under the workload's rule.
func cancerPartialRound(tb testing.TB) ([]*tensor.Tensor, *Partial) {
	tb.Helper()
	spec, err := dataset.Get("cancer")
	if err != nil {
		tb.Fatal(err)
	}
	params := nn.Build(spec.ModelSpec(), tensor.NewRNG(7)).Params()
	edge, err := NewExact(AggFedSGD)
	if err != nil {
		tb.Fatal(err)
	}
	edge.Begin(params)
	g := tensor.NewRNG(31)
	for c := 0; c < 31; c++ {
		u := tensor.CloneAll(params)
		for _, t := range u {
			g.FillNormal(t, 0, 0.06)
		}
		edge.Fold(u)
	}
	return params, edge.TakePartial()
}

// TestBinaryDecodeZeroAlloc pins the decode side of the pooled-scratch
// contract: once warm, reading a dense update and its tensors, reading an
// announcement and installing its parameters, an edge writing its partial
// and the root reading one into its scratch allocate nothing.
func TestBinaryDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	params, partial := cancerPartialRound(t)
	wire := WireFromTensors(params)
	frameOf := func(write func(*binarySession) error) []byte {
		var buf bytes.Buffer
		if err := write(&binarySession{w: &buf}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	updateFrame := frameOf(func(s *binarySession) error { return s.WriteUpdateTensors(3, 1, 40, params) })
	paramFrame := frameOf(func(s *binarySession) error {
		return s.WriteParam(&ParamMsg{Round: 1, Params: wire, Cfg: RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 6, ConfigDigest: "d6cfbe1694d10521"}})
	})
	partialFrame := frameOf(func(s *binarySession) error { return s.WritePartial(5, 1, partial) })

	rd := bytes.NewReader(nil)
	in := &binarySession{r: rd}
	var um UpdateMsg
	var pm ParamMsg
	cases := map[string]func() error{
		"dense update": func() error {
			rd.Reset(updateFrame)
			if err := in.ReadUpdate(&um); err != nil {
				return err
			}
			ts, err := um.DecodeTensors()
			if err == nil {
				err = updateMatchesParams(ts, wire)
			}
			return err
		},
		"announcement": func() error {
			rd.Reset(paramFrame)
			if err := in.ReadParam(&pm); err != nil {
				return err
			}
			if err := pm.Validate(); err != nil {
				return err
			}
			return updateMatchesParams(pm.tensors(), wire)
		},
		"edge partial write": func() error {
			return (&binarySession{w: io.Discard}).WritePartial(5, 1, partial)
		},
		"root partial read": func() error {
			rd.Reset(partialFrame)
			if err := in.ReadUpdate(&um); err != nil {
				return err
			}
			_, err := um.decodePartial(wire)
			return err
		},
	}
	for name, run := range cases {
		if err := run(); err != nil { // warm the pools, buffers and views
			t.Fatalf("%s: %v", name, err)
		}
		var err error
		if allocs := testing.AllocsPerRun(50, func() { err = run() }); allocs != 0 || err != nil {
			t.Errorf("%s: %.1f allocations per op at steady state (err %v), want 0", name, allocs, err)
		}
	}
}

// BenchmarkPartialFrame prices one edge partial's trip at tree-100k's
// geometry: the edge writes it into its frame and the root reads it into
// its warm scratch, checked against the round's parameters.
func BenchmarkPartialFrame(b *testing.B) {
	params, partial := cancerPartialRound(b)
	wire := WireFromTensors(params)
	var buf bytes.Buffer
	s := &binarySession{r: &buf, w: &buf}
	var m UpdateMsg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePartial(5, 1, partial); err != nil {
			b.Fatal(err)
		}
		if err := s.ReadUpdate(&m); err != nil {
			b.Fatal(err)
		}
		if _, err := m.decodePartial(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateFrameDecode prices the server's read of one dense client
// update of the cancer MLP: frame, payload, validation and tensor views.
func BenchmarkUpdateFrameDecode(b *testing.B) {
	params, _ := cancerPartialRound(b)
	wire := WireFromTensors(params)
	var buf bytes.Buffer
	if err := (&binarySession{w: &buf}).WriteUpdateTensors(3, 1, 40, params); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	rd := bytes.NewReader(raw)
	s := &binarySession{r: rd}
	var m UpdateMsg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		if err := s.ReadUpdate(&m); err != nil {
			b.Fatal(err)
		}
		ts, err := m.DecodeTensors()
		if err == nil {
			err = updateMatchesParams(ts, wire)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
