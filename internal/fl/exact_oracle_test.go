package fl

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"fedcdp/internal/tensor"
)

// The big.Float accumulator that backed ExactVec before the limb
// superaccumulator, kept as the reference the limb arithmetic is checked
// against: same operations, same wire form, and nothing shared with it but
// the special-value codes (mergeSpec, specFloat).

// oraclePrec is wide enough that no differential program rounds: a program
// of at most oracleMaxOps operations grows a sum by at most one bit per
// operation above the float64 range's 2098 bits.
const (
	oraclePrec   = 4096
	oracleMaxOps = 1024
)

type oracleVec struct {
	acc     []big.Float
	spec    []byte
	scratch big.Float
}

func newOracleVec(n int) *oracleVec {
	v := &oracleVec{acc: make([]big.Float, n), spec: make([]byte, n)}
	for i := range v.acc {
		v.acc[i].SetPrec(oraclePrec)
	}
	v.scratch.SetPrec(53)
	return v
}

func (v *oracleVec) Zero() {
	for i := range v.acc {
		v.acc[i].SetInt64(0)
		v.spec[i] = exactFinite
	}
}

func (v *oracleVec) Add(i int, x float64) {
	if x == 0 {
		return
	}
	if math.IsNaN(x) {
		v.spec[i] = mergeSpec(v.spec[i], exactNaN)
		return
	}
	if math.IsInf(x, 1) {
		v.spec[i] = mergeSpec(v.spec[i], exactPosInf)
		return
	}
	if math.IsInf(x, -1) {
		v.spec[i] = mergeSpec(v.spec[i], exactNegInf)
		return
	}
	v.scratch.SetFloat64(x)
	v.acc[i].Add(&v.acc[i], &v.scratch)
}

func (v *oracleVec) AddAllScaled(s float64, data []float64) {
	for i, x := range data {
		v.Add(i, s*x)
	}
}

func (v *oracleVec) Merge(o *oracleVec) {
	for i := range v.acc {
		v.spec[i] = mergeSpec(v.spec[i], o.spec[i])
		v.acc[i].Add(&v.acc[i], &o.acc[i])
	}
}

func (v *oracleVec) Round(i int) float64 {
	if v.spec[i] != exactFinite {
		return specFloat(v.spec[i])
	}
	f, _ := v.acc[i].Float64()
	return f
}

func (v *oracleVec) ScalarWire(i int) ExactScalarWire {
	w := ExactScalarWire{Spec: v.spec[i]}
	a := &v.acc[i]
	if a.Sign() == 0 {
		return w
	}
	w.Neg = a.Signbit()
	var mant big.Float
	exp := a.MantExp(&mant) // |mant| ∈ [0.5, 1), value = mant·2^exp
	mant.Abs(&mant)
	p := int(a.MinPrec())
	mant.SetMantExp(&mant, p) // integer in [2^(p-1), 2^p)
	mi, _ := mant.Int(nil)    // exact: mant is an integer
	w.Mant = mi.Bytes()
	w.Exp = int64(exp - p)
	return w
}

// SetScalarWire installs a scalar the caller has already validated. A zero
// mantissa is +0 whatever Neg says (big.Float would keep a −0).
func (v *oracleVec) SetScalarWire(i int, w ExactScalarWire) {
	v.spec[i] = w.Spec
	a := &v.acc[i]
	var mi big.Int
	mi.SetBytes(w.Mant)
	if mi.Sign() == 0 {
		a.SetInt64(0)
		return
	}
	a.SetInt(&mi)
	a.SetMantExp(a, int(w.Exp))
	if w.Neg {
		a.Neg(a)
	}
}

// --- Differential programs ---------------------------------------------------

// oracleFloats are the addends a program can name in one byte: the float64
// range's edges, the ties-to-even halfway cases at the normal, subnormal and
// overflow boundaries (each as a pair of addends whose exact sum is the
// halfway point), and values in far-apart limbs that force the window to
// grow down and up after a first narrow addend.
var oracleFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 3.5e-9, 1e-300, 1e300, -1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x0.fffffffffffffp-1022,
	math.MaxFloat64, -math.MaxFloat64, 0x1p1023, 0x1p970, -0x1p970, 0x1p969,
	1 + 0x1p-52, 0x1p-53, -0x1p-53, 0x1p-54, 0x1p-105, 0x1p52, 0x1p53, 0x1p-1021,
	0x1p64, -0x1p64, 0x1p-64, 0x1p-960, 0x1p-1010, 0x1p-114, 0x1p14, 0x1p78,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

const (
	oracleVecs = 3
	oracleDim  = 3
)

// diffState runs one program on the limb accumulator and the oracle side by
// side and checks every element after every operation.
type diffState struct {
	t    *testing.T
	got  [oracleVecs]*ExactVec
	want [oracleVecs]*oracleVec
}

func newDiffState(t *testing.T) *diffState {
	s := &diffState{t: t}
	for i := range s.got {
		s.got[i], s.want[i] = NewExactVec(oracleDim), newOracleVec(oracleDim)
	}
	return s
}

func (s *diffState) check(op string) {
	s.t.Helper()
	for vi := range s.got {
		for i := 0; i < oracleDim; i++ {
			g, w := s.got[vi].Round(i), s.want[vi].Round(i)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				s.t.Fatalf("after %s: vec %d elem %d rounds to %x (%g), oracle %x (%g)", op, vi, i, math.Float64bits(g), g, math.Float64bits(w), w)
			}
			gw, ww := s.got[vi].ScalarWire(i), s.want[vi].ScalarWire(i)
			if gw.Spec != ww.Spec || gw.Neg != ww.Neg || gw.Exp != ww.Exp || !bytes.Equal(gw.Mant, ww.Mant) {
				s.t.Fatalf("after %s: vec %d elem %d wire %+v, oracle %+v", op, vi, i, gw, ww)
			}
		}
	}
}

// nextFloat reads one addend: a table index, or 0xff followed by 8 raw bits.
func nextFloat(prog *[]byte) float64 {
	p := *prog
	if len(p) == 0 {
		return 0
	}
	b := p[0]
	p = p[1:]
	x := oracleFloats[int(b)%len(oracleFloats)]
	if b == 0xff && len(p) >= 8 {
		x = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	*prog = p
	return x
}

// run interprets prog: each operation is one opcode byte (low 3 bits the
// operation, next 2 the destination vector, next 2 an element or source
// vector) followed by its operands.
func (s *diffState) run(prog []byte) {
	s.t.Helper()
	for ops := 0; len(prog) > 0 && ops < oracleMaxOps; ops++ {
		op := prog[0]
		prog = prog[1:]
		vi, arg := int(op>>3&3)%oracleVecs, int(op>>5&3)
		switch op & 7 {
		case 0, 1: // Add (twice as likely as the rest)
			x := nextFloat(&prog)
			s.got[vi].Add(arg%oracleDim, x)
			s.want[vi].Add(arg%oracleDim, x)
			s.check("Add")
		case 2: // AddAllScaled
			scale := nextFloat(&prog)
			data := make([]float64, oracleDim)
			for i := range data {
				data[i] = nextFloat(&prog)
			}
			s.got[vi].AddAllScaled(scale, data)
			s.want[vi].AddAllScaled(scale, data)
			s.check("AddAllScaled")
		case 3, 4: // Merge, possibly into itself
			src := arg % oracleVecs
			if err := s.got[vi].Merge(s.got[src]); err != nil {
				s.t.Fatal(err)
			}
			s.want[vi].Merge(s.want[src])
			s.check("Merge")
		case 5: // Zero
			s.got[vi].Zero()
			s.want[vi].Zero()
			s.check("Zero")
		default: // wire round-trip through the binary codec into vector arg
			dst := arg % oracleVecs
			for i := 0; i < oracleDim; i++ {
				w := s.got[vi].ScalarWire(i)
				raw := appendExactScalar(nil, w)
				if direct := s.got[vi].appendScalar(nil, i); !bytes.Equal(direct, raw) {
					s.t.Fatalf("direct scalar bytes % x, wire form's % x", direct, raw)
				}
				if err := validateExactScalar(w); err != nil {
					// Only a sum past the wire envelope may fail to install.
					if wireTopBit(w) <= exactTopBit && len(w.Mant) <= exactMantBytes {
						s.t.Fatalf("own wire form rejected: %v", err)
					}
					continue
				}
				r := wireReader{b: raw}
				err := readScalarInto(&r, s.got[dst], i)
				if r.err != nil {
					s.t.Fatalf("own wire form does not parse: %v", r.err)
				}
				if err != nil {
					s.t.Fatalf("own wire form rejected: %v", err)
				}
				s.want[dst].SetScalarWire(i, s.want[vi].ScalarWire(i))
			}
			s.check("wire round-trip")
		}
	}
}

// oracleSeeds are hand-written programs for the cases random bytes find
// slowly.
func oracleSeeds() [][]byte {
	add := func(vec int, xs ...float64) []byte {
		var p []byte
	addends:
		for _, x := range xs {
			p = append(p, byte(vec<<3))
			for i, f := range oracleFloats {
				if math.Float64bits(f) == math.Float64bits(x) {
					p = append(p, byte(i))
					continue addends
				}
			}
			p = binary.LittleEndian.AppendUint64(append(p, 0xff), math.Float64bits(x))
		}
		return p
	}
	merge := func(dst, src int) []byte { return []byte{byte(3 | dst<<3 | src<<5)} }
	wire := func(src, dst int) []byte { return []byte{byte(6 | src<<3 | dst<<5)} }
	zero := func(vec int) []byte { return []byte{byte(5 | vec<<3)} }
	cat := func(ps ...[]byte) []byte { return bytes.Join(ps, nil) }
	huge, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	seeds := [][]byte{
		// subnormals and signed zeros
		add(0, tiny, tiny, -tiny, 3*tiny, 0, math.Copysign(0, -1), 0x0.fffffffffffffp-1022, 0x1p-1022),
		// ±MaxFloat64 × 2^k by self-merge doubling, past overflow and back
		cat(add(0, huge), merge(0, 0), merge(0, 0), merge(0, 0), wire(0, 1), add(1, -huge, -huge, -huge), merge(0, 1)),
		cat(add(0, -huge, -huge), add(1, huge), merge(1, 1), merge(0, 1), add(0, tiny)),
		// exact cancellation to zero across far-apart limbs
		add(0, 1e300, 1, -1e300, 1e-300, -1, -1e-300),
		cat(add(0, 1e300, 3.5e-9), add(1, -1e300, -3.5e-9), merge(0, 1), wire(0, 2)),
		// ties-to-even at a normal boundary: 1+2^-53 (down), 1+2^-52+2^-53
		// (up), then a sticky bit far below breaks the tie
		add(0, 1, 0x1p-53), add(0, 1+0x1p-52, 0x1p-53), add(0, 1, 0x1p-53, 0x1p-1010),
		add(0, -1, -0x1p-53), add(0, 1, 0x1p-53, -0x1p-105),
		// the same at 2^53 (ulp 2) and where the subnormals end
		add(0, 0x1p53, 1), add(0, 0x1p53, 1, 0x1p53, 0x1p53, 1, 1),
		add(0, 0x0.fffffffffffffp-1022, tiny, 0x1p-1022), add(0, 0x1p-1021, tiny), add(0, 0x1p-1021, 3*tiny),
		// the overflow boundary: MaxFloat64 + 2^969 is halfway to 2^1024
		// (rounds to +Inf), 2^969 short of it is not
		add(0, huge, 0x1p969, 0x1p969), add(0, huge, 0x1p970, -0x1p969, -tiny), add(0, -huge, -0x1p970),
		// window growth down then up after a first narrow addend, and
		// negative sums whose sign must extend into the new limbs
		add(0, 1, 0x1p-960, 0x1p-64, 0x1p64, 0x1p78, 1e300, tiny), add(0, -1, 0x1p-1010, -0x1p64, 0x1p970, -huge),
		cat(add(0, -1), add(1, -0x1p64, 0x1p-114), merge(0, 1), add(2, 0x1p14), merge(2, 0), zero(0), merge(0, 2)),
		// a carry rippling through a long run of one-bits into a new limb
		cat(add(0, 0x1p64, -0x1p-1010), add(0, 0x1p-1010), add(0, -0x1p64, -tiny)),
		// special values: merge rules, wire round-trip, survival past Zero
		cat(add(0, 1, math.Inf(1)), add(1, math.Inf(-1)), add(2, math.NaN()), wire(0, 2), merge(1, 0), merge(0, 1), zero(1), merge(1, 2)),
		cat(add(0, 0.1, -0x1.123456789abcdp-300), add(1, 0x1.fedcba9876543p+400), merge(0, 1), wire(0, 2)),
	}
	return seeds
}

func TestExactVecMatchesOracleOnSeeds(t *testing.T) {
	for _, prog := range oracleSeeds() {
		newDiffState(t).run(prog)
	}
}

// TestExactVecMatchesOracleRandom drives both accumulators with seeded
// random interleavings; each program favours one of a few exponent spreads
// so narrow windows, wide windows and mid-program growth all occur.
func TestExactVecMatchesOracleRandom(t *testing.T) {
	g := tensor.NewRNG(2024)
	for trial := 0; trial < 300; trial++ {
		spread := []int{4, 40, 300, 1070}[trial%4]
		var prog []byte
		for n := 20 + g.Intn(200); n > 0; n-- {
			op := byte(g.Intn(256))
			prog = append(prog, op)
			floats := 0
			switch op & 7 {
			case 0, 1:
				floats = 1
			case 2:
				floats = 1 + oracleDim
			}
			for ; floats > 0; floats-- {
				if g.Intn(4) == 0 {
					prog = append(prog, byte(g.Intn(len(oracleFloats))))
					continue
				}
				x := (g.Float64() - 0.5) * math.Pow(2, float64(g.Intn(2*spread)-spread))
				prog = binary.LittleEndian.AppendUint64(append(prog, 0xff), math.Float64bits(x))
			}
		}
		newDiffState(t).run(prog)
	}
}

// FuzzExactVecOracle feeds arbitrary programs to both accumulators:
// identical Round bits and identical ScalarWire bytes per element after
// every operation.
func FuzzExactVecOracle(f *testing.F) {
	for _, prog := range oracleSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		newDiffState(t).run(prog)
	})
}
