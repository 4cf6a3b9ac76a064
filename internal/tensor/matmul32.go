package tensor

import "sync"

// This file is the float32 bulk execution path: the same blocked GEMM
// kernels as matmul.go (one generic body per transpose variant), run at
// float32 with operands converted panel-wise through pooled scratch
// buffers. Tensor storage stays float64 everywhere — layer parameters,
// activations and gradients keep their types and wire encoding — while the
// O(M·N·K) inner loops run at half the memory bandwidth. The float64
// kernels remain the reference oracle: nn's precision parity tests pin the
// fp32 engine within 1e-4 relative of the fp64 engine on the paper models
// (see DESIGN.md, "Precision").

// Precision names for the execution kernels, mirrored by fl.PrecisionFP64 /
// fl.PrecisionFP32 in the round config.
const (
	PrecisionFP64 = "fp64"
	PrecisionFP32 = "fp32"
)

// f32Scratch recycles float32 conversion buffers across GEMM calls. GEMMs
// run concurrently on every client-training goroutine, so the scratch is
// pooled rather than package-global.
var f32Scratch = sync.Pool{New: func() any { s := make([]float32, 0, 4096); return &s }}

// getF32 draws a length-n float32 buffer from the pool.
func getF32(n int) *[]float32 {
	sp := f32Scratch.Get().(*[]float32)
	if cap(*sp) < n {
		*sp = make([]float32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

func putF32(sp *[]float32) { f32Scratch.Put(sp) }

// downconvert fills dst with float32(src).
func downconvert(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// zeroF32 clears a float32 buffer.
func zeroF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// gemm32 runs one f32 GEMM: operands a (lenA) and b (lenB) are converted
// down, kernel accumulates into a zeroed f32 product buffer, and the result
// is folded into dst — overwriting when add is false, accumulating when
// true (the f32 product is added to the f64 destination, so the destination
// itself never loses precision to a round-trip).
func gemm32(dst, a, b *Tensor, m, n, k int, add bool, kernel func(cd, ad, bd []float32, m, n, k int)) {
	ap, bp, cp := getF32(len(a.data)), getF32(len(b.data)), getF32(m*n)
	downconvert(*ap, a.data)
	downconvert(*bp, b.data)
	zeroF32(*cp)
	kernel(*cp, *ap, *bp, m, n, k)
	dd := dst.data
	if add {
		for i, v := range *cp {
			dd[i] += float64(v)
		}
	} else {
		for i, v := range *cp {
			dd[i] = float64(v)
		}
	}
	putF32(ap)
	putF32(bp)
	putF32(cp)
}

// MatMul32 is MatMul computed at float32 (dst = a·b). dst must be non-nil.
func MatMul32(dst, a, b *Tensor) {
	m, k := mat2(a, "MatMul32")
	_, n := mat2(b, "MatMul32")
	gemm32(dst, a, b, m, n, k, false, gemmF32.addMatMul)
}

// AddMatMul32 is AddMatMul computed at float32 (dst += a·b).
func AddMatMul32(dst, a, b *Tensor) {
	m, k := mat2(a, "AddMatMul32")
	_, n := mat2(b, "AddMatMul32")
	gemm32(dst, a, b, m, n, k, true, gemmF32.addMatMul)
}

// MatMulT32 is MatMulT computed at float32 (dst = a·bᵀ). dst must be
// non-nil.
func MatMulT32(dst, a, b *Tensor) {
	m, k := mat2(a, "MatMulT32")
	n, _ := mat2(b, "MatMulT32")
	gemm32(dst, a, b, m, n, k, false, gemmF32.addMatMulT)
}

// AddMatMulT32 is AddMatMulT computed at float32 (dst += a·bᵀ).
func AddMatMulT32(dst, a, b *Tensor) {
	m, k := mat2(a, "AddMatMulT32")
	n, _ := mat2(b, "AddMatMulT32")
	gemm32(dst, a, b, m, n, k, true, gemmF32.addMatMulT)
}

// MatMulTN32 is MatMulTN computed at float32 (dst = aᵀ·b). dst must be
// non-nil.
func MatMulTN32(dst, a, b *Tensor) {
	k, m := mat2(a, "MatMulTN32")
	_, n := mat2(b, "MatMulTN32")
	gemm32(dst, a, b, m, n, k, false, gemmF32.addMatMulTN)
}

// AddMatMulTN32 is AddMatMulTN computed at float32 (dst += aᵀ·b).
func AddMatMulTN32(dst, a, b *Tensor) {
	k, m := mat2(a, "AddMatMulTN32")
	_, n := mat2(b, "AddMatMulTN32")
	gemm32(dst, a, b, m, n, k, true, gemmF32.addMatMulTN)
}
