//go:build !amd64

package tensor

// gemmSIMD returns no engine: off amd64 the strips are plain Go.
func gemmSIMD() []*gemmEngine { return nil }

// rowKernel is Axpy's pass, c[j] += a·b[j]: off amd64, addRow11.
func rowKernel(c []float64, a float64, b []float64) { addRow11(c, b, a) }
