//go:build amd64

package tensor

// The float64 strips in AVX and AVX-512 (matmul_amd64.s). Each holds a
// tile of its output rows in registers across all kn terms — 8 columns in
// YMM registers, or 16 in ZMM registers for the AVX-512 two-row strips —
// and each lane runs the multiplies and adds of the Go row operation
// (addRows22, …) in its order, so the results are the Go strips' bits
// (FuzzGEMMKernels). The columns past the last full tile run as one masked
// tile. The wrappers check the bounds the assembly relies on.

//go:noescape
func pairs2AVX(c0, c1, a0, a1, b []float64, kn, as, bs int)

//go:noescape
func pairs1AVX(c, a, b []float64, kn, as, bs int)

//go:noescape
func seq2AVX(c0, c1, a0, a1, b []float64, kn, bs int)

//go:noescape
func seq1AVX(c, a, b []float64, kn, bs int)

//go:noescape
func pairs2AVX512(c0, c1, a0, a1, b []float64, kn, as, bs int)

//go:noescape
func seq2AVX512(c0, c1, a0, a1, b []float64, kn, bs int)

//go:noescape
func transpose4AVX(dst, src []float64, n4, k4, n, k int)

func addPairs2AVX(c0, c1, a0, a1, b []float64, kn, as, bs int) {
	if n := len(c0); n > 0 && kn > 0 {
		_, _, _, _ = c1[n-1], a0[(kn-1)*as], a1[(kn-1)*as], b[(kn-1)*bs+n-1]
		pairs2AVX(c0, c1, a0, a1, b, kn, as, bs)
	}
}

func addPairs2AVX512(c0, c1, a0, a1, b []float64, kn, as, bs int) {
	if n := len(c0); n > 0 && kn > 0 {
		_, _, _, _ = c1[n-1], a0[(kn-1)*as], a1[(kn-1)*as], b[(kn-1)*bs+n-1]
		pairs2AVX512(c0, c1, a0, a1, b, kn, as, bs)
	}
}

func addPairs1AVX(c, a, b []float64, kn, as, bs int) {
	if n := len(c); n > 0 && kn > 0 {
		_, _ = a[(kn-1)*as], b[(kn-1)*bs+n-1]
		pairs1AVX(c, a, b, kn, as, bs)
	}
}

// addSeq2AVX runs at kn = 0 too: the dot form then adds +0 to c, which
// turns −0 into +0.
func addSeq2AVX(c0, c1, a0, a1, b []float64, kn, bs int) {
	n := len(c0)
	if n == 0 {
		return
	}
	_ = c1[n-1]
	if kn > 0 {
		_, _, _ = a0[kn-1], a1[kn-1], b[(kn-1)*bs+n-1]
	}
	seq2AVX(c0, c1, a0, a1, b, kn, bs)
}

func addSeq2AVX512(c0, c1, a0, a1, b []float64, kn, bs int) {
	n := len(c0)
	if n == 0 {
		return
	}
	_ = c1[n-1]
	if kn > 0 {
		_, _, _ = a0[kn-1], a1[kn-1], b[(kn-1)*bs+n-1]
	}
	seq2AVX512(c0, c1, a0, a1, b, kn, bs)
}

func addSeq1AVX(c, a, b []float64, kn, bs int) {
	n := len(c)
	if n == 0 {
		return
	}
	if kn > 0 {
		_, _ = a[kn-1], b[(kn-1)*bs+n-1]
	}
	seq1AVX(c, a, b, kn, bs)
}

// transposeAVX moves 4×4 blocks through registers and the ragged edges
// in Go.
func transposeAVX(dst, src []float64, n, k int) {
	n4, k4 := n&^3, k&^3
	if n4 > 0 && k4 > 0 {
		_, _ = src[n*k-1], dst[n*k-1]
		transpose4AVX(dst, src, n4, k4, n, k)
	}
	for j := 0; j < n4; j++ {
		for x := k4; x < k; x++ {
			dst[x*n+j] = src[j*k+x]
		}
	}
	for j := n4; j < n; j++ {
		for x, v := range src[j*k : (j+1)*k] {
			dst[x*n+j] = v
		}
	}
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state
// across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1
// and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// avx is hasAVX, read once at start-up.
var avx = hasAVX()

// gemmSIMD returns an engine for each set of SIMD strips the CPU and OS
// support, widest first: "avx512" (hasAVX512) runs the two-row strips,
// which carry every row of a GEMM but a last odd one, on 16-column tiles
// and the rest as "avx" does; "avx" runs every strip on 8-column tiles.
func gemmSIMD() []*gemmEngine[float64] {
	if !avx {
		return nil
	}
	var es []*gemmEngine[float64]
	if hasAVX512() {
		e := avxEngine("avx512")
		e.pairs2, e.seq2 = addPairs2AVX512, addSeq2AVX512
		es = append(es, e)
	}
	return append(es, avxEngine("avx"))
}

// avxEngine returns an engine named name over the AVX strips.
func avxEngine(name string) *gemmEngine[float64] {
	return &gemmEngine[float64]{
		name:   name,
		pairs2: addPairs2AVX, pairs1: addPairs1AVX,
		seq2: addSeq2AVX, seq1: addSeq1AVX,
		transpose: transposeAVX,
	}
}

// rowKernel is Axpy's pass, c[j] += a·b[j]. With AVX it is pairs1AVX at
// one term: its ODD1 step is one VMULPD and one VADDPD per lane, addRow11's
// multiply and add, so the bits are addRow11's (FuzzRowKernel). pairs1AVX
// is called directly, not through an engine's func field, so the
// one-element coefficient array does not escape and the pass allocates
// nothing. Without AVX it is addRow11.
func rowKernel(c []float64, a float64, b []float64) {
	b = b[:len(c)]
	if !avx {
		addRow11(c, b, a)
		return
	}
	coef := [1]float64{a}
	pairs1AVX(c, coef[:], b, 1, 1, 0)
}
