//go:build amd64

package tensor

// The AVX2 strip under the noise kernel (crng_amd64.s). It runs
// scaleAddNormalGo's fast path four elements at a time with the same
// integer and floating-point operations, and leaves each element whose
// draw the ziggurat rejects as it was, returning its position; the wrapper
// resolves those in Go with noiseSlow. Every element is a pure function of
// its counter and its own dst value, so the result is the Go loop's
// (FuzzNoiseKernels).

// noiseChunk is the most elements one call of the strip covers, so that
// every rejected position fits the wrapper's stack buffer.
const noiseChunk = 256

//go:noescape
func gaussAVX2(dst []float64, base uint64, scale, std float64, rej *[noiseChunk]uint8) int

func scaleAddNormalAVX2(dst []float64, base uint64, scale, std float64) {
	var rej [noiseChunk]uint8
	for len(dst) >= 4 {
		n := min(len(dst), noiseChunk) &^ 3
		for _, p := range rej[:gaussAVX2(dst[:n], base, scale, std, &rej)] {
			dst[p] = noiseSlow(dst[p], mix64(base+uint64(p)*crngGolden), scale, std)
		}
		dst, base = dst[n:], base+uint64(n)*crngGolden
	}
	scaleAddNormalGo(dst, base, scale, std)
}

// noiseSIMD returns the AVX2 strip when the CPU and OS support it, else
// nil.
func noiseSIMD() func(dst []float64, base uint64, scale, std float64) {
	if hasAVX2() {
		return scaleAddNormalAVX2
	}
	return nil
}

// hasAVX2 reports hasAVX and CPUID.(EAX=7,ECX=0):EBX.AVX2 (bit 5).
func hasAVX2() bool {
	if !hasAVX() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// zigRows interleaves the ziggurat tables for the strip, one 16-byte load
// per lane: row k is zigWn[k], then zigKn[k] as a float64 (exact).
var zigRows = func() (r [zigLayers][2]float64) {
	for k := range r {
		r[k] = [2]float64{zigWn[k], float64(zigKn[k])}
	}
	return r
}()

// rejLanes lists the lanes set in each 4-bit mask, lowest first, one byte
// each.
var rejLanes = func() (t [16]uint32) {
	for m := range t {
		n := 0
		for l := uint32(0); l < 4; l++ {
			if m>>l&1 != 0 {
				t[m] |= l << (8 * n)
				n++
			}
		}
	}
	return t
}()
