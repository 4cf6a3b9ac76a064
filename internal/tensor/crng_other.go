//go:build !amd64

package tensor

// noiseSIMD returns nil: off amd64 the noise kernel is the Go loop.
func noiseSIMD() func(dst []float64, base uint64, scale, std float64) { return nil }
