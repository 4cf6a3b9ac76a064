//go:build !amd64

package tensor

// noiseSIMD returns no strip: off amd64 the noise kernel is the Go loop.
func noiseSIMD() []noiseEngine { return nil }

// noiseStrip runs the Go loop: there is no SIMD strip off amd64.
func noiseStrip(dst []float64, base uint64, scale, std float64, lanes int) {
	scaleAddNormalGo(dst, base, scale, std)
}
