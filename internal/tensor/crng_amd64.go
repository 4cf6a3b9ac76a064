//go:build amd64

package tensor

// The SIMD strips under the noise kernel (crng_amd64.s). They run
// scaleAddNormalGo's fast path eight (AVX-512) or four (AVX2) elements at
// a time with the same integer and floating-point operations, and leave
// each element whose
// draw the ziggurat rejects as it was, returning its position; the wrapper
// resolves those in Go with noiseSlow. Every element is a pure function of
// its counter and its own dst value, so the result is the Go loop's
// (FuzzNoiseKernels).

// noiseChunk is the most elements one call of a strip covers, so that
// every rejected position fits the wrapper's stack buffer.
const noiseChunk = 256

//go:noescape
func gaussAVX2(dst []float64, base uint64, scale, std float64, rej *[noiseChunk]uint8) int

//go:noescape
func gaussAVX512(dst []float64, base uint64, scale, std float64, rej *[noiseChunk]uint8) int

// noiseStrip runs the kernel over dst from the mixer input base of dst[0]
// with the strip of the given lane width, 8 (AVX-512) or 4 (AVX2), over the
// longest prefix of dst that is a multiple of it, resolves the rejected
// positions with noiseSlow and leaves the tail, or all of dst at width 0,
// to the Go loop. It calls the strip by name rather than through a
// function value, which would move rej to the heap on every call.
func noiseStrip(dst []float64, base uint64, scale, std float64, lanes int) {
	var rej [noiseChunk]uint8
	for lanes > 0 && len(dst) >= lanes {
		n := min(len(dst), noiseChunk) &^ (lanes - 1)
		var r int
		if lanes == 8 {
			r = gaussAVX512(dst[:n], base, scale, std, &rej)
		} else {
			r = gaussAVX2(dst[:n], base, scale, std, &rej)
		}
		for _, p := range rej[:r] {
			dst[p] = noiseSlow(dst[p], mix64(base+uint64(p)*crngGolden), scale, std)
		}
		dst, base = dst[n:], base+uint64(n)*crngGolden
	}
	scaleAddNormalGo(dst, base, scale, std)
}

// noiseSIMD returns the strips the CPU and OS support, widest first.
func noiseSIMD() []noiseEngine {
	var e []noiseEngine
	if hasAVX512() {
		e = append(e, noiseEngine{"avx512", 8})
	}
	if hasAVX2() {
		e = append(e, noiseEngine{"avx2", 4})
	}
	return e
}

// leaf7 returns CPUID.(EAX=7,ECX=0):EBX, the extended feature flags, or 0
// when the CPU lacks hasAVX or that leaf.
func leaf7() uint32 {
	if !hasAVX() {
		return 0
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx
}

// hasAVX2 reports leaf 7's AVX2 flag (bit 5).
func hasAVX2() bool { return leaf7()&(1<<5) != 0 }

// hasAVX512 reports leaf 7's AVX512F and AVX512DQ flags (bits 16 and 17)
// and XCR0 bits 5, 6 and 7: the OS saves the opmask registers and the
// upper halves of ZMM0–15 and ZMM16–31 (hasAVX checked bits 1 and 2).
func hasAVX512() bool {
	const f, dq, zmm = 1 << 16, 1 << 17, 0xe0
	if leaf7()&(f|dq) != f|dq {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&zmm == zmm
}

// zigRows interleaves the ziggurat tables for the AVX2 strip, one 16-byte
// load per lane: row k is zigWn[k], then zigKn[k] as a float64 (exact).
var zigRows = func() (r [zigLayers][2]float64) {
	for k := range r {
		r[k] = [2]float64{zigWn[k], float64(zigKn[k])}
	}
	return r
}()

// zigKn64 is zigKn widened for the AVX-512 strip's 64-bit gather and
// unsigned compare.
var zigKn64 = func() (r [zigLayers]uint64) {
	for k, v := range zigKn {
		r[k] = uint64(v)
	}
	return r
}()

// rejLanes lists the lanes set in each 8-bit mask, lowest first, one byte
// each.
var rejLanes = func() (t [256]uint64) {
	for m := range t {
		n := 0
		for l := uint64(0); l < 8; l++ {
			if m>>l&1 != 0 {
				t[m] |= l << (8 * n)
				n++
			}
		}
	}
	return t
}()
