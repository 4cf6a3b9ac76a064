//go:build !amd64

package tensor

// withSIMD returns e unchanged: off amd64 the strips are plain Go.
func withSIMD(e *gemmEngine[float64]) *gemmEngine[float64] { return e }
