package tensor

import (
	"math"
	"runtime"
	"testing"
)

// goGEMM is the float64 engine over the plain Go strips: the oracle the
// SIMD strips are diffed against.
var goGEMM = newGemmEngine[float64]()

// gemmCase is one GEMM in (m, n, k) terms: C[m×n] from a reduction of
// length k.
type gemmCase struct {
	name    string
	m, n, k int
}

// modelGEMMs are the shapes the models run, by variant: the MNIST CNN's
// per-example conv GEMMs and its batch-5 dense layer (nn.ImageCNN at
// 1×28×28), and the tabular MLP's batch-4 30→32 layer (BenchmarkGEMMShapes
// prices the same twelve).
var modelGEMMs = map[string][]gemmCase{
	"nn": {{"conv1", 8, 196, 25}, {"conv2", 16, 49, 200}, {"dense", 5, 784, 10}, {"mlp", 4, 30, 32}},
	"tn": {{"conv1", 25, 196, 8}, {"conv2", 200, 49, 16}, {"dense", 10, 784, 5}, {"mlp", 32, 30, 4}},
	"nt": {{"conv1", 8, 25, 196}, {"conv2", 16, 200, 49}, {"dense", 5, 10, 784}, {"mlp", 4, 32, 30}},
}

// operands returns a and b shaped for variant v at (m, n, k).
func operands(v string, m, n, k int) (a, b *Tensor) {
	switch v {
	case "nn":
		return New(m, k), New(k, n)
	case "nt":
		return New(m, k), New(n, k)
	default:
		return New(k, m), New(k, n)
	}
}

// addGEMM runs dst += op(a, b) for variant v through the public API.
func addGEMM(v string, dst, a, b *Tensor) {
	switch v {
	case "nn":
		AddMatMul(dst, a, b)
	case "nt":
		AddMatMulT(dst, a, b)
	default:
		AddMatMulTN(dst, a, b)
	}
}

// sameOrBothNaN reports whether x and y are the same bits, or both NaN.
func sameOrBothNaN(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// TestGEMMIndependentOfPartition runs every variant at GOMAXPROCS 1–4 with
// enough free gemmSlots for one helper per row, so the row partition — and
// which rows run in pairs — changes with GOMAXPROCS. Each element's
// operations depend on k alone, so the results must not. The first case is
// the one a zero-skip in the single-row tail got wrong: an all-zero a
// against an Inf in b's last row is NaN in every row (0·Inf), not only in
// the rows that happened to be paired.
func TestGEMMIndependentOfPartition(t *testing.T) {
	saved := gemmSlots
	gemmSlots = make(chan struct{}, 8)
	defer func() { gemmSlots = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	rng := NewRNG(23)
	for _, v := range []string{"nn", "tn", "nt"} {
		for _, s := range []gemmCase{{"zero-a-inf-b", 3, 1000, 23}, {"random", 7, 301, 64}, {"hostile", 5, 517, 41}} {
			a, b := operands(v, s.m, s.n, s.k)
			dst0 := New(s.m, s.n)
			switch s.name {
			case "zero-a-inf-b":
				rng.FillUniform(b, -1, 1)
				if v == "nt" {
					b.data[(s.n-1)*s.k+s.k-1] = math.Inf(1) // b is n×k: its last k column
				} else {
					b.data[(s.k-1)*s.n+s.n/2] = math.Inf(1)
				}
				dst0.Fill(math.Copysign(0, -1))
			case "random":
				rng.FillUniform(a, -1, 1)
				rng.FillUniform(b, -1, 1)
				rng.FillUniform(dst0, -1, 1)
			default:
				fillHostile(a.data, 11, 64)
				fillHostile(b.data, 12, 64)
				fillHostile(dst0.data, 13, 64)
			}
			var want *Tensor
			for procs := 1; procs <= 4; procs++ {
				runtime.GOMAXPROCS(procs)
				got := dst0.Clone()
				addGEMM(v, got, a, b)
				if want == nil {
					want = got
					continue
				}
				for i, x := range got.data {
					if y := want.data[i]; !sameOrBothNaN(x, y) {
						t.Fatalf("%s %s: element (%d,%d) is %v at GOMAXPROCS %d, %v at 1",
							v, s.name, i/s.n, i%s.n, x, procs, y)
					}
				}
			}
			if s.name == "zero-a-inf-b" {
				col := s.n / 2
				if v == "nt" {
					col = s.n - 1
				}
				for i := 0; i < s.m; i++ {
					if x := want.At(i, col); !math.IsNaN(x) {
						t.Fatalf("%s: row %d of the Inf column is %v, want NaN (0·Inf)", v, i, x)
					}
				}
			}
		}
	}
}

// TestGEMMAllocatesNothing pins every variant at the models' shapes to
// zero allocations per call on the serial path (GOMAXPROCS 1), NT panel
// form included: the parallel closure is built only where helpers run and
// the panel comes from a pool.
func TestGEMMAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := NewRNG(5)
	for v, cases := range modelGEMMs {
		for _, s := range cases {
			a, b := operands(v, s.m, s.n, s.k)
			rng.FillUniform(a, -1, 1)
			rng.FillUniform(b, -1, 1)
			dst := New(s.m, s.n)
			if n := testing.AllocsPerRun(50, func() { addGEMM(v, dst, a, b) }); n != 0 {
				t.Errorf("%s %s (%d×%d×%d): %v allocations per call, want 0", v, s.name, s.m, s.n, s.k, n)
			}
		}
	}
}

// TestNTPanelFormMatchesMatVec checks the NT panel form (shapes past
// ntPanelPays) against MatVec bit for bit, as the dot form is by
// TestMatMulMatchesMatVecBitwise: the batched Dense forward must equal the
// per-example reference whichever form its shape selects.
func TestNTPanelFormMatchesMatVec(t *testing.T) {
	if gemmF64.seq2 == nil {
		t.Skip("no SIMD strips on this CPU: NT runs in dot form only")
	}
	rng := NewRNG(9)
	for _, s := range []gemmCase{{"panel", 8, 32, 29}, {"odd", 13, 45, 301}, {"conv2", 16, 200, 49}} {
		if !ntPanelPays(s.m, s.n) {
			t.Fatalf("%s: %d×%d does not take the panel form", s.name, s.m, s.n)
		}
		w := randomMat(rng, s.n, s.k)
		x := New(s.m, s.k)
		rng.FillUniform(x, -2, 2)
		y := MatMulT(nil, x, w)
		for i := 0; i < s.m; i++ {
			for j, v := range MatVec(w, x.Row(i)).Data() {
				if y.At(i, j) != v {
					t.Fatalf("%s row %d col %d: panel form %v != MatVec %v", s.name, i, j, y.At(i, j), v)
				}
			}
		}
	}
}

// hostileValues are the operands a GEMM must get bit-identical on every
// path: signed zeros, infinities, NaNs of both signs and several payloads,
// subnormals and values whose products overflow.
var hostileValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3,
	math.Inf(1), math.Inf(-1),
	math.NaN(), -math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0000), math.Float64frombits(0xfff8_0000_0000_0000),
	math.Float64frombits(0x7ff4_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), 2.2250738585072014e-308,
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1e-300,
}

// fillHostile fills s from a splitmix64 stream keyed by seed: per element,
// with probability pct/256 one of hostileValues or raw random bits (any
// NaN payload), otherwise a value in [-1, 1).
func fillHostile(s []float64, seed uint64, pct uint8) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range s {
		r := next()
		switch {
		case uint8(r) >= pct:
			s[i] = float64(int64(r>>11)-(1<<52)) / (1 << 52)
		case r>>8&3 == 0:
			s[i] = math.Float64frombits(next())
		default:
			s[i] = hostileValues[(r>>16)%uint64(len(hostileValues))]
		}
	}
}

// FuzzGEMMKernels diffs the float64 engine (the AVX strips on a CPU that
// has them) against the plain Go strips on all three variants over hostile
// operands and a hostile destination: every result the same bits, and NaN
// wherever the other is NaN (NaN payloads are not part of the contract;
// see matmul_amd64.s). Shapes reach every tail: m odd and even, n mod 8
// in 0–7, k odd and past the gemmBlockK edge, both NT forms, and m·n·k on
// both sides of gemmParallelFlops. The Go engine runs NT in dot form, so
// the NT diff also holds the panel form to the dot form.
func FuzzGEMMKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint16(7), uint8(40))
	f.Add(uint64(2), uint8(8), uint8(32), uint16(257), uint8(255))
	f.Add(uint64(3), uint8(16), uint8(200), uint16(49), uint8(16))
	f.Add(uint64(4), uint8(9), uint8(35), uint16(300), uint8(0))
	f.Add(uint64(5), uint8(1), uint8(66), uint16(0), uint8(128))
	f.Add(uint64(6), uint8(30), uint8(250), uint16(513), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, mb, nb uint8, kb uint16, pct uint8) {
		if gemmF64.seq2 == nil {
			t.Skip("the float64 engine runs the Go strips on this CPU")
		}
		m, n, k := 1+int(mb)%32, 1+int(nb), int(kb)%600
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		c := make([]float64, m*n)
		fillHostile(a, seed, pct)
		fillHostile(b, seed^0x5555, pct)
		fillHostile(c, seed^0xaaaa, pct)
		for _, v := range []string{"nn", "nt", "tn"} {
			got, want := append([]float64(nil), c...), append([]float64(nil), c...)
			switch v {
			case "nn":
				gemmF64.addMatMul(got, a, b, m, n, k)
				goGEMM.addMatMul(want, a, b, m, n, k)
			case "nt":
				gemmF64.addMatMulT(got, a, b, m, n, k)
				goGEMM.addMatMulT(want, a, b, m, n, k)
			default:
				gemmF64.addMatMulTN(got, a, b, m, n, k)
				goGEMM.addMatMulTN(want, a, b, m, n, k)
			}
			for i := range got {
				if !sameOrBothNaN(got[i], want[i]) {
					t.Fatalf("%s %d×%d×%d: element (%d,%d) SIMD %#016x, Go %#016x",
						v, m, n, k, i/n, i%n, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
