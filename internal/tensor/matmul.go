package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the GEMM core of the batched execution engine. All three
// transpose variants share the same structure: the output is split into
// panels of rows, panels are processed by up to GOMAXPROCS goroutines, and
// each pair of output rows (and a last odd row) is one strip — the row's
// whole run of reduction terms, each term an axpy c[j] += a·b[j] over a
// contiguous row of b, so the hot loop is contiguous and a SIMD strip can
// keep its output tile in registers across the terms.
//
// Accumulation order: every output element's sequence of operations
// depends on the reduction length alone — not on which rows a goroutine
// was given, how many goroutines ran, or whether a row was served in a
// pair. The NT kernel (MatMulT) reduces each output element with a single
// sequential accumulator from +0 in increasing k order, then adds it to
// the destination — bit for bit the order MatVec uses, which keeps the
// batched Dense forward identical to the per-example reference. Where the
// operand shape amortizes a transposed copy of b (ntPanelPays), the NT
// kernel walks k innermost over that copy as axpys instead of as dot
// products; the accumulators, and so the results, are the same. The NN and
// TN kernels group k-terms in pairs (c += a₀·b₀ + a₁·b₁), so they agree with
// the sequential reference to rounding error only; the engine parity tests
// pin the end-to-end difference below 1e-9 (see DESIGN.md).
//
// The kernel bodies are generic over the element type (gemmElem) and are
// methods of a gemmEngine, which holds the strips they call: the float64
// engine is the default and the reference oracle; the float32 engine backs
// the fp32 bulk path in matmul32.go. One body per variant means the two
// precisions cannot drift apart structurally — only in element width. The
// strips are plain Go, except that on amd64 with AVX the float64 engine
// runs them in assembly (matmul_amd64.s) — with AVX-512, its two-row
// strips eight lanes per instruction, otherwise four: a separate VMULPD
// and VADDPD for each Go multiply and add, never a fused multiply-add, so
// each lane rounds exactly as the scalar Go does and the results are the
// same bits.

// gemmElem is the element type a GEMM kernel runs at.
type gemmElem interface{ ~float32 | ~float64 }

const (
	// gemmBlockK is the reduction-dimension block: 256 float64 rows of B
	// (256×N values) are streamed per panel pass, sized for L2 residency at
	// the layer widths this library uses.
	gemmBlockK = 256
	// gemmParallelFlops is the minimum multiply-add count before the kernels
	// spawn goroutines; below it the fork/join overhead dominates.
	gemmParallelFlops = 1 << 16
	// gemmPanelMinRows and gemmPanelMinWidth gate the NT kernel's panel
	// form: the transposed copy of b costs k·n moves per call, which two
	// output rows already repay on every NT shape the models run (one row
	// does not: 1×10×784 runs twice as long as the dot form), and a SIMD
	// strip's tile is 8 columns wide — below that the dot form wins.
	gemmPanelMinRows  = 2
	gemmPanelMinWidth = 8
)

func mat2(t *Tensor, op string) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s wants rank-2 matrices, got shape %v", op, t.shape))
	}
	return t.shape[0], t.shape[1]
}

// gemmEngine is one element type's GEMM: the kernel bodies (its methods),
// the strips they call, and the pool of NT panels.
//
// A strip is one or two output rows over a run of kn reduction terms: term
// x scales row x of b (b[x·bs : x·bs+n], n = len(c0)) by a0[x·as] (and
// a1[x·as]). The Go strips below define the arithmetic as loops of row
// operations; a SIMD strip computes the same operations in the same order
// on each element, holding the output tile in registers across the terms.
type gemmEngine[F gemmElem] struct {
	// name names the strips, for tests and benchmarks: "go", or the SIMD
	// engine's instruction set (gemmSIMD).
	name string

	// pairs2 adds the terms to c0 and c1 two at a time — per pair,
	// c += a[x]·b_x + a[x+1]·b_{x+1} — and a last odd term alone (NN, TN).
	pairs2 func(c0, c1, a0, a1, b []F, kn, as, bs int)
	// pairs1 is pairs2 for one row.
	pairs1 func(c, a, b []F, kn, as, bs int)

	// The NT panel form (ntPanelRows) runs on SIMD strips only — in Go the
	// dot form is faster — so these stay nil on an engine of Go strips.
	//
	// seq2 adds to c0 and c1 the sums Σ a[x]·b_x accumulated from +0 one
	// term at a time in increasing x, with a stride 1: per element, the
	// dot form's accumulator (ntDotRows), then c += sum.
	seq2 func(c0, c1, a0, a1, b []F, kn, bs int)
	// seq1 is seq2 for one row.
	seq1 func(c, a, b []F, kn, bs int)
	// transpose writes the n×k matrix src into dst as k×n.
	transpose func(dst, src []F, n, k int)

	// panels recycles *[]F scratch for the NT panel form.
	panels sync.Pool
}

// newGemmEngine returns an engine over the plain Go strips.
func newGemmEngine[F gemmElem]() *gemmEngine[F] {
	return &gemmEngine[F]{name: "go", pairs2: addPairs2[F], pairs1: addPairs1[F]}
}

var (
	// gemmF64 runs the float64 GEMMs: the widest strips the CPU and OS
	// support (decided once, here).
	gemmF64 = gemmEngines()[0]
	// gemmF32 runs the float32 bulk path (matmul32.go).
	gemmF32 = newGemmEngine[float32]()
)

// gemmEngines returns a float64 engine for each set of strips the CPU and
// OS can run, widest first: the SIMD engines (gemmSIMD), then the Go
// strips. Every one computes the same bits (FuzzGEMMKernels).
func gemmEngines() []*gemmEngine[float64] {
	return append(gemmSIMD(), newGemmEngine[float64]())
}

func addPairs2[F gemmElem](c0, c1, a0, a1, b []F, kn, as, bs int) {
	n := len(c0)
	x := 0
	for ; x+1 < kn; x += 2 {
		addRows22(c0, c1, b[x*bs:x*bs+n], b[(x+1)*bs:(x+1)*bs+n], a0[x*as], a0[(x+1)*as], a1[x*as], a1[(x+1)*as])
	}
	if x < kn {
		addRows21(c0, c1, b[x*bs:x*bs+n], a0[x*as], a1[x*as])
	}
}

func addPairs1[F gemmElem](c, a, b []F, kn, as, bs int) {
	n := len(c)
	x := 0
	for ; x+1 < kn; x += 2 {
		addRow12(c, b[x*bs:x*bs+n], b[(x+1)*bs:(x+1)*bs+n], a[x*as], a[(x+1)*as])
	}
	if x < kn {
		addRow11(c, b[x*bs:x*bs+n], a[x*as])
	}
}

// The row operations the Go strips are built from; every slice has
// len(c0) (or len(c)) elements. They stay out of line: inlined into the
// strip loops, their coefficients spill from registers and the strips run
// slower.

//go:noinline
func addRows22[F gemmElem](c0, c1, b0, b1 []F, a00, a01, a10, a11 F) {
	c1 = c1[:len(c0)]
	b0 = b0[:len(c0)]
	b1 = b1[:len(c0)]
	for j, bv0 := range b0 {
		bv1 := b1[j]
		c0[j] += F(a00*bv0) + F(a01*bv1)
		c1[j] += F(a10*bv0) + F(a11*bv1)
	}
}

//go:noinline
func addRows21[F gemmElem](c0, c1, b []F, a0, a1 F) {
	c1 = c1[:len(c0)]
	b = b[:len(c0)]
	for j, bv := range b {
		c0[j] += F(a0 * bv)
		c1[j] += F(a1 * bv)
	}
}

//go:noinline
func addRow12[F gemmElem](c, b0, b1 []F, a0, a1 F) {
	b0 = b0[:len(c)]
	b1 = b1[:len(c)]
	for j, bv0 := range b0 {
		c[j] += F(a0*bv0) + F(a1*b1[j])
	}
}

//go:noinline
func addRow11[F gemmElem](c, b []F, a F) {
	b = b[:len(c)]
	for j, bv := range b {
		c[j] += F(a * bv)
	}
}

// gemmSlots caps the number of extra CPU-bound GEMM goroutines in flight
// across the whole process. The federated trainer already runs up to
// GOMAXPROCS clients concurrently; without a global cap each client's GEMMs
// would fork another GOMAXPROCS goroutines (P² oversubscription). Slots are
// acquired non-blockingly: a GEMM running while the machine is saturated
// simply executes serially on its own goroutine.
var gemmSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// gemmHelpers acquires the gemmSlots for a GEMM over rows output rows and
// flops multiply-adds and returns how many helper goroutines it may fork:
// 0 when the work is too small to amortize them or no slot is free. A
// non-zero count must be handed to forkRows, which releases the slots.
func gemmHelpers(rows, flops int) int {
	workers := min(runtime.GOMAXPROCS(0), rows)
	if flops < gemmParallelFlops || workers <= 1 {
		return 0
	}
	extra := 0
	for extra < workers-1 {
		select {
		case gemmSlots <- struct{}{}:
			extra++
		default:
			return extra
		}
	}
	return extra
}

// forkRows invokes fn over disjoint sub-ranges of [0, rows) on the calling
// goroutine and up to extra helpers (acquired by gemmHelpers), and returns
// once every range is done. The kernels call it only on their parallel
// path, so the serial path builds no closure.
func forkRows(rows, extra int, fn func(lo, hi int)) {
	chunk := (rows + extra) / (extra + 1)
	spawned := (rows+chunk-1)/chunk - 1
	for ; extra > spawned; extra-- { // chunk rounding may need fewer helpers
		<-gemmSlots
	}
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-gemmSlots }()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk)
	wg.Wait()
}

// MatMul computes dst = a·b for row-major matrices a (M×K) and b (K×N),
// writing into dst (M×N) and returning it. A nil dst is allocated.
func MatMul(dst, a, b *Tensor) *Tensor {
	m, k := mat2(a, "MatMul")
	k2, n := mat2(b, "MatMul")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else {
		dm, dn := mat2(dst, "MatMul")
		if dm != m || dn != n {
			panic(fmt.Sprintf("tensor: MatMul dst shape %v, want (%d,%d)", dst.shape, m, n))
		}
		dst.Zero()
	}
	AddMatMul(dst, a, b)
	return dst
}

// AddMatMul computes dst += a·b (shapes as in MatMul). Two rows of dst
// share each streamed pair of b rows, so every load of b feeds four
// multiply-adds.
func AddMatMul(dst, a, b *Tensor) {
	m, k := mat2(a, "AddMatMul")
	_, n := mat2(b, "AddMatMul")
	gemmF64.addMatMul(dst.data, a.data, b.data, m, n, k)
}

// addMatMul is the NN GEMM body: cd += ad·bd for row-major ad (m×k),
// bd (k×n), cd (m×n).
func (e *gemmEngine[F]) addMatMul(cd, ad, bd []F, m, n, k int) {
	if extra := gemmHelpers(m, m*n*k); extra > 0 {
		forkRows(m, extra, func(lo, hi int) { e.nnRows(cd, ad, bd, n, k, lo, hi) })
		return
	}
	e.nnRows(cd, ad, bd, n, k, 0, m)
}

// nnRows computes output rows [lo, hi) of the NN GEMM, one block of
// gemmBlockK reduction terms at a time.
func (e *gemmEngine[F]) nnRows(cd, ad, bd []F, n, k, lo, hi int) {
	for kk := 0; kk < k; kk += gemmBlockK {
		kn := min(gemmBlockK, k-kk)
		b := bd[kk*n:]
		i := lo
		for ; i+1 < hi; i += 2 {
			e.pairs2(cd[i*n:(i+1)*n], cd[(i+1)*n:(i+2)*n], ad[i*k+kk:], ad[(i+1)*k+kk:], b, kn, 1, n)
		}
		if i < hi {
			e.pairs1(cd[i*n:(i+1)*n], ad[i*k+kk:], b, kn, 1, n)
		}
	}
}

// MatMulT computes dst = a·bᵀ for a (M×K) and b (N×K), writing into dst
// (M×N) and returning it. A nil dst is allocated.
func MatMulT(dst, a, b *Tensor) *Tensor {
	m, k := mat2(a, "MatMulT")
	n, k2 := mat2(b, "MatMulT")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %v x %vᵀ", a.shape, b.shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else {
		dm, dn := mat2(dst, "MatMulT")
		if dm != m || dn != n {
			panic(fmt.Sprintf("tensor: MatMulT dst shape %v, want (%d,%d)", dst.shape, m, n))
		}
		dst.Zero()
	}
	AddMatMulT(dst, a, b)
	return dst
}

// AddMatMulT computes dst += a·bᵀ (shapes as in MatMulT). Each output
// element is one dot product with its own sequential accumulator; see
// addMatMulT for the two loop orders that compute it.
func AddMatMulT(dst, a, b *Tensor) {
	m, k := mat2(a, "AddMatMulT")
	n, _ := mat2(b, "AddMatMulT")
	gemmF64.addMatMulT(dst.data, a.data, b.data, m, n, k)
}

// ntPanelPays reports whether an NT GEMM with m output rows and n output
// columns pays for the panel form on SIMD strips — a property of the
// operand shape alone.
func ntPanelPays(m, n int) bool { return m >= gemmPanelMinRows && n >= gemmPanelMinWidth }

// addMatMulT is the NT GEMM body: cd += ad·bdᵀ for row-major ad (m×k),
// bd (n×k), cd (m×n). With SIMD strips, shapes past ntPanelPays copy bdᵀ
// into a pooled k×n panel once and run seq strips over it (ntPanelRows);
// the rest take the dot form (ntDotRows).
func (e *gemmEngine[F]) addMatMulT(cd, ad, bd []F, m, n, k int) {
	if e.seq2 == nil || !ntPanelPays(m, n) {
		if extra := gemmHelpers(m, m*n*k); extra > 0 {
			forkRows(m, extra, func(lo, hi int) { ntDotRows(cd, ad, bd, n, k, lo, hi) })
			return
		}
		ntDotRows(cd, ad, bd, n, k, 0, m)
		return
	}
	buf := e.scratch(k * n)
	bt := *buf
	e.transpose(bt, bd, n, k)
	if extra := gemmHelpers(m, m*n*k); extra > 0 {
		forkRows(m, extra, func(lo, hi int) { e.ntPanelRows(cd, ad, bt, n, k, lo, hi) })
	} else {
		e.ntPanelRows(cd, ad, bt, n, k, 0, m)
	}
	e.panels.Put(buf)
}

// scratch draws a length-size buffer from the engine's panel pool.
func (e *gemmEngine[F]) scratch(size int) *[]F {
	p, _ := e.panels.Get().(*[]F)
	if p == nil {
		p = new([]F)
	}
	if cap(*p) < size {
		*p = make([]F, size)
	}
	*p = (*p)[:size]
	return p
}

// ntDotRows computes output rows [lo, hi) of the NT GEMM as dot products:
// two dots share each streamed a-row for instruction-level parallelism.
func ntDotRows[F gemmElem](cd, ad, bd []F, n, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		j := 0
		for ; j+1 < n; j += 2 {
			b0 := bd[j*k : (j+1)*k]
			b0 = b0[:len(ai)]
			b1 := bd[(j+1)*k : (j+2)*k]
			b1 = b1[:len(ai)]
			var s0, s1 F
			for x, av := range ai {
				s0 += F(av * b0[x])
				s1 += F(av * b1[x])
			}
			ci[j] += s0
			ci[j+1] += s1
		}
		for ; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			bj = bj[:len(ai)]
			var s F
			for x, av := range ai {
				s += F(av * bj[x])
			}
			ci[j] += s
		}
	}
}

// ntPanelRows computes output rows [lo, hi) of the NT GEMM from bt = bdᵀ
// (k×n): row i of the output adds Σ_x a[i][x]·bt[x], accumulated from +0 in
// increasing x — per element, the dot form's accumulator.
func (e *gemmEngine[F]) ntPanelRows(cd, ad, bt []F, n, k, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		e.seq2(cd[i*n:(i+1)*n], cd[(i+1)*n:(i+2)*n], ad[i*k:(i+1)*k], ad[(i+1)*k:(i+2)*k], bt, k, n)
	}
	if i < hi {
		e.seq1(cd[i*n:(i+1)*n], ad[i*k:(i+1)*k], bt, k, n)
	}
}

// MatMulTN computes dst = aᵀ·b for a (K×M) and b (K×N), writing into dst
// (M×N) and returning it. A nil dst is allocated.
func MatMulTN(dst, a, b *Tensor) *Tensor {
	k, m := mat2(a, "MatMulTN")
	k2, n := mat2(b, "MatMulTN")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTN outer dimension mismatch %vᵀ x %v", a.shape, b.shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else {
		dm, dn := mat2(dst, "MatMulTN")
		if dm != m || dn != n {
			panic(fmt.Sprintf("tensor: MatMulTN dst shape %v, want (%d,%d)", dst.shape, m, n))
		}
		dst.Zero()
	}
	AddMatMulTN(dst, a, b)
	return dst
}

// AddMatMulTN computes dst += aᵀ·b (shapes as in MatMulTN). Reads of a are
// column-strided, but each loaded element feeds a full contiguous axpy over
// a row of b, and two rows of dst share each streamed pair of b rows.
func AddMatMulTN(dst, a, b *Tensor) {
	k, m := mat2(a, "AddMatMulTN")
	_, n := mat2(b, "AddMatMulTN")
	gemmF64.addMatMulTN(dst.data, a.data, b.data, m, n, k)
}

// addMatMulTN is the TN GEMM body: cd += adᵀ·bd for row-major ad (k×m),
// bd (k×n), cd (m×n).
func (e *gemmEngine[F]) addMatMulTN(cd, ad, bd []F, m, n, k int) {
	if k == 0 {
		return // nothing to add, and no column of ad to start a strip at
	}
	if extra := gemmHelpers(m, m*n*k); extra > 0 {
		forkRows(m, extra, func(lo, hi int) { e.tnRows(cd, ad, bd, m, n, k, lo, hi) })
		return
	}
	e.tnRows(cd, ad, bd, m, n, k, 0, m)
}

// tnRows computes output rows [lo, hi) of the TN GEMM: column i of ad,
// read at stride m, scales the rows of bd.
func (e *gemmEngine[F]) tnRows(cd, ad, bd []F, m, n, k, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		e.pairs2(cd[i*n:(i+1)*n], cd[(i+1)*n:(i+2)*n], ad[i:], ad[i+1:], bd, k, m, n)
	}
	if i < hi {
		e.pairs1(cd[i*n:(i+1)*n], ad[i:], bd, k, m, n)
	}
}
