// Package tensor provides dense float64 tensors and the small set of
// numerical primitives every other package is built on: shape-checked
// element-wise arithmetic, blocked and parallel matrix multiplication
// (MatMul/MatMulT/MatMulTN and their accumulating variants), im2col/col2im
// for convolution lowering, L2 norms and norm clipping, scratch-buffer
// arenas, and deterministic random number generation.
//
// # Precision
//
// Storage is always float64. The GEMM kernels are generic over the element
// type and instantiated for both widths: the 32-suffixed variants
// (MatMul32, AddMatMulT32, …) round their float64 inputs into pooled
// float32 scratch, multiply at float32, and widen the result back — a
// compute format, not a storage format, selected per run through
// PrecisionFP32 (see internal/nn and core.Config.Precision). PrecisionFP64
// is the pinned reference; parity tests bound the fp32 paths against it.
//
// On amd64 with AVX (read once at start-up from CPUID and XGETBV) the
// float64 kernels run their inner loops in assembly, four lanes at a time,
// with every Go multiply and add its own instruction — never a fused
// multiply-add — so they return the Go loops' bits on every non-NaN result
// and NaN wherever Go gives NaN (FuzzGEMMKernels; which NaN payload
// survives is not fixed, by the Go compiler either). Float32, other
// architectures and CPUs without AVX run the Go loops.
//
// The element-wise row pass c[j] += a·b[j] is one kernel, Axpy, under
// AddScaled (and so Add, Sub, AddAllScaled), AddOuter and MatVecT; with
// AVX it is the GEMM's one-row strip at one term, whose multiply and add
// are the Go loop's, so its bits are the Go loop's (FuzzRowKernel), and it
// allocates nothing.
//
// Every product the package adds is written float64(a*b) + c, which the
// Go spec forbids the compiler to fuse into one multiply-add, so the
// kernels round the same way on arm64 (which fuses a*b + c) as on amd64
// (which never does).
//
// # Determinism contracts
//
// Two generator families cover every random draw in the repository:
//
//   - RNG emits math/rand's Go 1 seeded stream bit for bit behind
//     splittable seeds: Split(seed, labels...) derives a child stream that
//     depends only on (seed, labels...), so any component can be handed a
//     stable stream regardless of goroutine scheduling. Its source
//     (source.go) seeds in O(1) instead of math/rand's 607-word init, so a
//     keyed Split-and-draw costs one small allocation and Reseed none;
//     TestSourceMatchesMathRand pins the stream against rand.NewSource. A
//     stream's draws are sequential — two consumers must not share one RNG.
//
//   - CounterRNG (crng.go) is the counter-mode engine behind the parallel
//     DP noise path: the k-th Gaussian of stream (seed, labels...) is a
//     pure function of (seed, labels..., k). There is no shared cursor, so
//     any goroutine may generate any sub-range of any stream in any order
//     and the assembled output is bit-identical at every GOMAXPROCS. The
//     bulk kernels (AddNormalBulk, ScaleAddNormalBulk; one loop, the first
//     at scale 1) honor the same indexing, so bulk ≡ pointwise exactly.
//     On amd64 with AVX2 (CPUID leaf 7, read once at start-up) their
//     ziggurat fast path runs in assembly, four counters at a time: each
//     lane mixes its own counter, every 64-bit multiply is composed
//     exactly from 32-bit partial products, |j| < zigKn[k] is compared
//     unsigned (on exact doubles, so |MinInt32| rejects), and the float
//     steps are separate multiplies and one add in the Go grouping, never
//     fused. Rejected lanes come back to Go, which resolves them with the
//     scalar slow path, so the strip returns the Go loop's bits
//     (FuzzNoiseKernels). Other architectures and CPUs without AVX2 run
//     the Go loop.
//
// Reserved Split/CounterRNG label spaces are documented at their owners:
// labels 1–7 under the root seed belong to internal/fl (model init, cohort
// sampling, dropout, counter noise; 2 and 4 are retired there), and the
// 1000/2000/3xxx/4xxx spaces under the dataset seed belong to
// internal/dataset (prototypes, samples, partitioners, label flips).
//
// # Concurrency
//
// Tensors are row-major and mutable; operations that can work in place do
// so and are documented accordingly. A Tensor is not internally
// synchronized — concurrent writers need external coordination. Arena is a
// single-goroutine scratch recycler: each worker owns one. The blocked
// MatMul kernels may shard rows across goroutines internally; each output
// element's operations depend on the reduction length alone, so results do
// not depend on GOMAXPROCS or on how many GEMM slots were free
// (TestGEMMIndependentOfPartition). A serial GEMM allocates nothing.
package tensor
