// Package tensor provides dense float64 tensors and the small set of
// numerical primitives every other package is built on: shape-checked
// element-wise arithmetic, blocked and parallel matrix multiplication
// (MatMul/MatMulT/MatMulTN and their accumulating variants), im2col/col2im
// for convolution lowering, L2 norms and norm clipping, scratch-buffer
// arenas, and deterministic random number generation.
//
// # Kernels
//
// On amd64 the GEMM kernels run their inner loops in assembly on the
// widest engine the CPU has, chosen once at start-up from CPUID and XGETBV:
// avx512, whose two-row strips hold 16 output columns per row in ZMM
// registers, eight lanes at a time, with the rest of the strips on AVX;
// then avx, every strip on 8-column tiles, four lanes at a time; then the
// Go loops. Every Go multiply and add is its own instruction — never a
// fused multiply-add — so each engine returns the Go loops' bits on every
// non-NaN result and NaN wherever Go gives NaN (FuzzGEMMKernels runs every
// engine the host has; which NaN payload survives is not fixed, by the Go
// compiler either). Other architectures and CPUs without AVX run the Go
// loops.
//
// Im2Col builds most rows of the patch matrix from rows already written —
// taps one stride apart see the same pixels one output position apart —
// and gathers from the image only what no earlier row holds. It moves
// values and never computes one, so the matrix is the plain gather's bit
// for bit (FuzzIm2Col).
//
// The element-wise row pass c[j] += a·b[j] is one kernel, Axpy, under
// AddScaled (and so Add, Sub, AddAllScaled), AddOuter and MatVecT; with
// AVX it is the GEMM's one-row strip at one term, whose multiply and add
// are the Go loop's, so its bits are the Go loop's (FuzzRowKernel), and it
// allocates nothing.
//
// CompareExchange orders two rows of uint64 keys lane by lane (min into
// one, max into the other): the comparator of a sorting network applied to
// a whole row of coordinates at once, which the robust folds in
// internal/fl sort with. With AVX-512 it is a VPMINUQ/VPMAXUQ strip; a min
// and a max are exact, so its bits are the Go strip's (FuzzCompareExchange).
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
//     On amd64 their ziggurat fast path runs in assembly on the widest
//     engine the CPU has, chosen once at start-up from CPUID and XGETBV:
//     avx512 (AVX512F and AVX512DQ, with the OS saving the opmask and ZMM
//     state), eight counters at a time, then avx2 (CPUID leaf 7), four at
//     a time, then the Go loop. In each strip every lane mixes its own
//     counter, every 64-bit multiply is the exact product mod 2⁶⁴
//     (VPMULLQ, or composed from 32-bit partial products), |j| < zigKn[k]
//     is compared unsigned (so |MinInt32| rejects), and the float steps
//     are separate multiplies and one add in the Go grouping, never
//     fused. Rejected lanes come back to Go, which resolves them with the
//     scalar slow path, so each strip returns the Go loop's bits
//     (FuzzNoiseKernels). The slow path decides its wedge tests from a
//     per-layer chord squeeze and calls math.Exp only inside the squeeze's
//     band, deciding exactly as the exact test would
//     (TestZigguratSlowMatchesExact, TestZigguratSqueezeBrackets). Other
//     architectures run the Go loop.
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
// MatMul kernels may shard rows across helper goroutines, taken from the
// process's one CPU budget (TakeHelpers, AddBusy) only onto idle cores and
// run by Fork, the one fork every package's helpers go through;
// each output element's operations depend on the reduction length alone,
// so results do not depend on GOMAXPROCS or on how many helpers ran
// (TestGEMMIndependentOfPartition). A serial GEMM allocates nothing.
package tensor
