//go:build amd64

package tensor

// The float64 strips in AVX (matmul_amd64.s). Each holds an 8-column tile
// of its output rows in YMM registers across all kn terms, and each lane
// runs the multiplies and adds of the Go row operation (addRows22, …) in
// its order, so the results are the Go strips' bits (FuzzGEMMKernels). The
// columns past the last full tile run as one masked tile. The wrappers
// check the bounds the assembly relies on.

//go:noescape
func pairs2AVX(c0, c1, a0, a1, b []float64, kn, as, bs int)

//go:noescape
func pairs1AVX(c, a, b []float64, kn, as, bs int)

//go:noescape
func seq2AVX(c0, c1, a0, a1, b []float64, kn, bs int)

//go:noescape
func seq1AVX(c, a, b []float64, kn, bs int)

//go:noescape
func transpose4AVX(dst, src []float64, n4, k4, n, k int)

func addPairs2AVX(c0, c1, a0, a1, b []float64, kn, as, bs int) {
	if n := len(c0); n > 0 && kn > 0 {
		_, _, _, _ = c1[n-1], a0[(kn-1)*as], a1[(kn-1)*as], b[(kn-1)*bs+n-1]
		pairs2AVX(c0, c1, a0, a1, b, kn, as, bs)
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

// withSIMD swaps the AVX strips into e when the CPU and OS support them;
// otherwise e keeps the Go ones.
func withSIMD(e *gemmEngine[float64]) *gemmEngine[float64] {
	if hasAVX() {
		e.pairs2, e.pairs1, e.seq2, e.seq1 = addPairs2AVX, addPairs1AVX, addSeq2AVX, addSeq1AVX
		e.transpose = transposeAVX
	}
	return e
}
