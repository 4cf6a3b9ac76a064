//go:build !amd64

package tensor

// withSIMD returns e unchanged: off amd64 the strips are plain Go.
func withSIMD(e *gemmEngine[float64]) *gemmEngine[float64] { return e }

// rowKernel is Axpy's pass, c[j] += a·b[j]: off amd64, addRow11.
func rowKernel(c []float64, a float64, b []float64) { addRow11(c, b, a) }
