package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// goGEMM is the engine over the plain Go strips: the oracle the SIMD
// strips are diffed against.
var goGEMM = newGemmEngine()

// gemmEnginesLogged returns every engine this CPU runs
// (gemmEngines, widest first, the Go strips last) and logs their names, so
// a run shows which strips it held to the contract.
func gemmEnginesLogged(tb testing.TB) []*gemmEngine {
	es := gemmEngines()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name
	}
	tb.Logf("gemm engines: %s", strings.Join(names, ", "))
	return es
}

// gemmCase is one GEMM in (m, n, k) terms: C[m×n] from a reduction of
// length k.
type gemmCase struct {
	name    string
	m, n, k int
}

// workloadGEMMs are the GEMMs the benchmark workloads' models run, each at
// its own shape (C[m×n] over a reduction of length k): the MNIST CNN
// (nn.ImageCNN at 1×28×28; cnn-inproc, batch 5), the adult MLP (105→32→32→2;
// churn-2k, batch 3) and the cancer MLP (30→32→32→2; flat-faulted and
// tree-100k, batch 4). A conv layer's forward is NN, its input gradient TN
// (the first layer needs none) and its per-example weight gradient NT; a
// dense layer's forward is NT and its input gradient NN — its per-example
// weight gradients are row passes. Evaluation runs the forwards on chunks
// of 64 examples and on the remainder of the validation set (8, 36 or 40).
var workloadGEMMs = func() (gs []workloadGEMM) {
	add := func(name, v string, m, n, k int) { gs = append(gs, workloadGEMM{name, v, m, n, k}) }
	add("cnn/conv1", "nn", 8, 196, 25)
	add("cnn/conv1", "nt", 8, 25, 196)
	add("cnn/conv2", "nn", 16, 49, 200)
	add("cnn/conv2", "tn", 200, 49, 16)
	add("cnn/conv2", "nt", 16, 200, 49)
	for _, b := range []int{5, 64, 8} {
		add("cnn/dense", "nt", b, 10, 784)
	}
	add("cnn/dense", "nn", 5, 784, 10)
	for _, mlp := range []struct {
		name  string
		in    int
		batch []int
	}{{"adult", 105, []int{3, 64, 36}}, {"cancer", 30, []int{4, 64, 36, 40}}} {
		for _, b := range mlp.batch {
			add(mlp.name+"/dense1", "nt", b, 32, mlp.in)
			add(mlp.name+"/dense2", "nt", b, 32, 32)
			add(mlp.name+"/dense3", "nt", b, 2, 32)
		}
		add(mlp.name+"/dense2", "nn", mlp.batch[0], 32, 32)
		add(mlp.name+"/dense3", "nn", mlp.batch[0], 32, 2)
	}
	return gs
}()

// workloadGEMM is one entry of workloadGEMMs: the model and layer that
// runs it, its variant and its shape.
type workloadGEMM struct {
	name, variant string
	m, n, k       int
}

// strayGEMMs are shapes no workload runs that TestGEMMAllocatesNothing
// checks beside workloadGEMMs: conv1's input gradient (TN with an odd m, so
// its last row runs the one-row strip), the CNN's batch-5 dense TN and the
// tabular MLP's batch-4 30→32 layer as NN and TN.
var strayGEMMs = []workloadGEMM{
	{"cnn/conv1", "tn", 25, 196, 8},
	{"cnn/dense", "tn", 10, 784, 5},
	{"mlp", "nn", 4, 30, 32},
	{"mlp", "tn", 32, 30, 4},
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

// addGEMM runs dst += op(a, b) for variant v on engine e, with a and b
// shaped as operands shapes them.
func addGEMM(e *gemmEngine, v string, dst, a, b *Tensor) {
	m, n := dst.shape[0], dst.shape[1]
	switch v {
	case "nn":
		e.addMatMul(dst.data, a.data, b.data, m, n, a.shape[1])
	case "nt":
		e.addMatMulT(dst.data, a.data, b.data, m, n, a.shape[1])
	default:
		e.addMatMulTN(dst.data, a.data, b.data, m, n, a.shape[0])
	}
}

// addGEMMAPI runs dst += op(a, b) for variant v through the public API,
// on gemm.
func addGEMMAPI(v string, dst, a, b *Tensor) {
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

// TestGEMMIndependentOfPartition runs every variant on every engine at
// GOMAXPROCS 1–4 with the CPU budget empty, so each call forks one helper
// per idle core and the row partition — and which rows run in pairs —
// changes with GOMAXPROCS. Each element's operations depend on k alone, so
// the results must not. The first case is the one a zero-skip in the
// single-row tail got wrong: an all-zero a against an Inf in b's last row
// is NaN in every row (0·Inf), not only in the rows that happened to be
// paired.
func TestGEMMIndependentOfPartition(t *testing.T) {
	if n := Busy(); n != 0 {
		t.Fatalf("the CPU budget holds %d goroutines before the test; its partitions need it empty", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	rng := NewRNG(23)
	for _, e := range gemmEnginesLogged(t) {
		testPartitionIndependence(t, e, rng)
	}
}

func testPartitionIndependence(t *testing.T, e *gemmEngine, rng *RNG) {
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
				addGEMM(e, v, got, a, b)
				if n := Busy(); n != 0 {
					t.Fatalf("%s %s %s: %d helpers still in the CPU budget after the call at GOMAXPROCS %d", e.name, v, s.name, n, procs)
				}
				if want == nil {
					want = got
					continue
				}
				for i, x := range got.data {
					if y := want.data[i]; !sameOrBothNaN(x, y) {
						t.Fatalf("%s %s %s: element (%d,%d) is %v at GOMAXPROCS %d, %v at 1",
							e.name, v, s.name, i/s.n, i%s.n, x, procs, y)
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
						t.Fatalf("%s %s: row %d of the Inf column is %v, want NaN (0·Inf)", e.name, v, i, x)
					}
				}
			}
		}
	}
}

// TestGEMMAllocatesNothing pins every engine at every shape the workloads
// run (workloadGEMMs) and at strayGEMMs to zero allocations per call on the
// serial path (GOMAXPROCS 1), NT panel form included: the parallel closure
// is built only where helpers run and the panel comes from a pool. The
// same shapes also go once through the public AddMatMul, AddMatMulT and
// AddMatMulTN, the entry points the models call.
func TestGEMMAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := NewRNG(5)
	shapes := append(append([]workloadGEMM(nil), workloadGEMMs...), strayGEMMs...)
	check := func(engine string, s workloadGEMM, add func(dst, a, b *Tensor)) {
		a, b := operands(s.variant, s.m, s.n, s.k)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		dst := New(s.m, s.n)
		if n := testing.AllocsPerRun(50, func() { add(dst, a, b) }); n != 0 {
			t.Errorf("%s %s %s (%d×%d×%d): %v allocations per call, want 0", engine, s.name, s.variant, s.m, s.n, s.k, n)
		}
	}
	for _, e := range gemmEnginesLogged(t) {
		for _, s := range shapes {
			check(e.name, s, func(dst, a, b *Tensor) { addGEMM(e, s.variant, dst, a, b) })
		}
	}
	for _, s := range shapes {
		check("api/"+gemm.name, s, func(dst, a, b *Tensor) { addGEMMAPI(s.variant, dst, a, b) })
	}
}

// TestNTPanelFormMatchesMatVec checks the NT panel form against MatVec bit
// for bit, as the dot form is by TestMatMulMatchesMatVecBitwise: the
// batched Dense forward must equal the per-example reference whichever
// form its shape selects. The first shapes take the panel form; the small
// batches m ∈ {1, 2, 3} × n ∈ {2, 8, 32} sit on both sides of
// ntPanelPays, so each also runs both forms forced, over hostile
// operands, and must get the same bits from each. Every SIMD engine runs.
func TestNTPanelFormMatchesMatVec(t *testing.T) {
	es := gemmEnginesLogged(t)
	if len(es) == 1 {
		t.Skip("no SIMD strips on this CPU: NT runs in dot form only")
	}
	for _, e := range es[:len(es)-1] {
		testNTPanelForm(t, e)
	}
}

func testNTPanelForm(t *testing.T, e *gemmEngine) {
	cases := []gemmCase{{"panel", 8, 32, 29}, {"odd", 13, 45, 301}, {"conv2", 16, 200, 49}}
	for _, s := range cases {
		if !ntPanelPays(s.m, s.n) {
			t.Fatalf("%s: %d×%d does not take the panel form", s.name, s.m, s.n)
		}
	}
	for m := 1; m <= 3; m++ {
		for _, n := range []int{2, 8, 32} {
			for _, k := range []int{1, 30, 105} {
				cases = append(cases, gemmCase{"batch", m, n, k})
			}
		}
	}
	rng := NewRNG(9)
	for ci, s := range cases {
		w := randomMat(rng, s.n, s.k)
		x := New(s.m, s.k)
		rng.FillUniform(x, -2, 2)
		y := New(s.m, s.n)
		addGEMM(e, "nt", y, x, w)
		for i := 0; i < s.m; i++ {
			for j, v := range MatVec(w, x.Row(i)).Data() {
				if y.At(i, j) != v {
					t.Fatalf("%s %s %d×%d×%d row %d col %d: MatMulT %v != MatVec %v", e.name, s.name, s.m, s.n, s.k, i, j, y.At(i, j), v)
				}
			}
		}

		a, b := make([]float64, s.m*s.k), make([]float64, s.n*s.k)
		dot := make([]float64, s.m*s.n)
		fillHostile(a, uint64(ci), 48)
		fillHostile(b, uint64(ci)^0x5555, 48)
		fillHostile(dot, uint64(ci)^0xaaaa, 48)
		panel := append([]float64(nil), dot...)
		ntDotRows(dot, a, b, s.n, s.k, 0, s.m)
		bt := make([]float64, s.k*s.n)
		e.transpose(bt, b, s.n, s.k)
		e.ntPanelRows(panel, a, bt, s.n, s.k, 0, s.m)
		for i := range dot {
			if !sameOrBothNaN(panel[i], dot[i]) {
				t.Fatalf("%s %s %d×%d×%d: element (%d,%d) panel %#016x, dot %#016x",
					e.name, s.name, s.m, s.n, s.k, i/s.n, i%s.n, math.Float64bits(panel[i]), math.Float64bits(dot[i]))
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

// FuzzGEMMKernels diffs every SIMD engine the CPU runs (AVX-512 and AVX
// strips alike) against the plain Go strips on all three variants over
// hostile operands and a hostile destination: every result the same bits,
// and NaN wherever the other is NaN (NaN payloads are not part of the
// contract; see matmul_amd64.s). Shapes reach every tail: m odd and even,
// n mod 16 in 0–15, k odd and past the gemmBlockK edge, both NT forms, and
// m·n·k on both sides of gemmParallelFlops. The Go engine runs NT in dot
// form, so the NT diff also holds the panel form to the dot form.
func FuzzGEMMKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint16(7), uint8(40))
	f.Add(uint64(2), uint8(8), uint8(32), uint16(257), uint8(255))
	f.Add(uint64(3), uint8(16), uint8(200), uint16(49), uint8(16))
	f.Add(uint64(4), uint8(9), uint8(35), uint16(300), uint8(0))
	f.Add(uint64(5), uint8(1), uint8(66), uint16(0), uint8(128))
	f.Add(uint64(6), uint8(30), uint8(250), uint16(513), uint8(8))
	es := gemmEnginesLogged(f)
	simd := es[:len(es)-1]
	f.Fuzz(func(t *testing.T, seed uint64, mb, nb uint8, kb uint16, pct uint8) {
		if len(simd) == 0 {
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
			want := append([]float64(nil), c...)
			switch v {
			case "nn":
				goGEMM.addMatMul(want, a, b, m, n, k)
			case "nt":
				goGEMM.addMatMulT(want, a, b, m, n, k)
			default:
				goGEMM.addMatMulTN(want, a, b, m, n, k)
			}
			for _, e := range simd {
				got := append([]float64(nil), c...)
				switch v {
				case "nn":
					e.addMatMul(got, a, b, m, n, k)
				case "nt":
					e.addMatMulT(got, a, b, m, n, k)
				default:
					e.addMatMulTN(got, a, b, m, n, k)
				}
				for i := range got {
					if !sameOrBothNaN(got[i], want[i]) {
						t.Fatalf("%s %s %d×%d×%d: element (%d,%d) SIMD %#016x, Go %#016x",
							e.name, v, m, n, k, i/n, i%n, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// FuzzRowKernel holds Axpy's AVX pass to the Go loop it replaces,
// addRow11, bit for bit (NaN where the other is NaN; see matmul_amd64.s on
// payloads): every length 0–67 — each tail of the 8-column tile, and
// several full tiles — at an offset 0–3 elements off the allocation, over
// hostile operands, with the fuzzed α and then every hostile value as α.
func FuzzRowKernel(f *testing.F) {
	for n := 0; n <= 67; n++ {
		f.Add(uint64(n), uint8(n), hostileValues[n%len(hostileValues)], uint8(96))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nb uint8, alpha float64, pct uint8) {
		if gemm.seq2 == nil {
			t.Skip("Axpy runs the Go loop on this CPU")
		}
		n, off := int(nb)%68, int(seed%4)
		dst := make([]float64, off+n)[off:]
		src := make([]float64, off+n)[off:]
		fillHostile(dst, seed, pct)
		fillHostile(src, seed^0x5555, pct)
		for _, a := range append([]float64{alpha}, hostileValues...) {
			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			rowKernel(got, a, src)
			addRow11(want, src, a)
			for j := range got {
				if !sameOrBothNaN(got[j], want[j]) {
					t.Fatalf("n=%d α=%v: element %d kernel %#016x, Go %#016x (dst %v, src %v)",
						n, a, j, math.Float64bits(got[j]), math.Float64bits(want[j]), dst[j], src[j])
				}
			}
		}
	})
}

// TestRowPassesAllocateNothing pins AddScaled and AddOuter to zero
// allocations per call: the AVX pass's one-element coefficient must stay
// on the stack.
func TestRowPassesAllocateNothing(t *testing.T) {
	rng := NewRNG(3)
	x, y := New(3458), New(3458)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(y, -1, 1)
	if n := testing.AllocsPerRun(100, func() { x.AddScaled(-0.1, y) }); n != 0 {
		t.Errorf("AddScaled: %v allocations per call, want 0", n)
	}
	w, a, b := New(32, 105), New(32), New(105)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	if n := testing.AllocsPerRun(100, func() { AddOuter(w, 0.5, a, b) }); n != 0 {
		t.Errorf("AddOuter: %v allocations per call, want 0", n)
	}
}

// BenchmarkRowKernel prices Axpy's pass per engine at the adult MLP's
// parameter count (3,458), the length of every SGD step and batch fold on
// the tabular workloads.
func BenchmarkRowKernel(b *testing.B) {
	const n = 3458
	rng := NewRNG(4)
	c, x := New(n), New(n)
	rng.FillUniform(c, -1, 1)
	rng.FillUniform(x, -1, 1)
	for _, e := range []struct {
		name string
		pass func(c []float64, a float64, b []float64)
	}{
		{"go", func(c []float64, a float64, b []float64) { addRow11(c, b, a) }},
		{"avx", rowKernel},
	} {
		b.Run(e.name, func(b *testing.B) {
			if e.name == "avx" && gemm.seq2 == nil {
				b.Skip("no AVX on this CPU")
			}
			for i := 0; i < b.N; i++ {
				e.pass(c.data, 1e-9, x.data)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

// BenchmarkGEMMShapes prices every GEMM the benchmark workloads run
// (workloadGEMMs) on every engine this CPU has, in ns/op and GFLOP/s.
// Sub-benchmarks are named model/layer/variant/m×n×k/engine. Run with
// -cpu 1 to price the serial strips a saturated trainer runs; the host is
// noisy, so compare engines interleaved (-count) and take the minimum.
func BenchmarkGEMMShapes(b *testing.B) {
	es := gemmEnginesLogged(b)
	for _, s := range workloadGEMMs {
		rng := NewRNG(1)
		x, y := operands(s.variant, s.m, s.n, s.k)
		rng.FillUniform(x, -1, 1)
		rng.FillUniform(y, -1, 1)
		dst := New(s.m, s.n)
		for _, e := range es {
			b.Run(fmt.Sprintf("%s/%s/%dx%dx%d/%s", s.name, s.variant, s.m, s.n, s.k, e.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					addGEMM(e, s.variant, dst, x, y)
				}
				b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
