package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
// The kernel bodies are methods of a gemmEngine, which holds the strips
// they call. The strips are plain Go, except that on amd64 with AVX they
// run in assembly (matmul_amd64.s) — with AVX-512, the two-row strips
// eight lanes per instruction, otherwise four: a separate VMULPD and VADDPD
// for each Go multiply and add, never a fused multiply-add, so each lane
// rounds exactly as the scalar Go does and the results are the same bits.

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

// gemmEngine is one set of strips: the kernel bodies (its methods), the
// strips they call, and the pool of NT panels.
//
// A strip is one or two output rows over a run of kn reduction terms: term
// x scales row x of b (b[x·bs : x·bs+n], n = len(c0)) by a0[x·as] (and
// a1[x·as]). The Go strips below define the arithmetic as loops of row
// operations; a SIMD strip computes the same operations in the same order
// on each element, holding the output tile in registers across the terms.
type gemmEngine struct {
	// name names the strips, for tests and benchmarks: "go", or the SIMD
	// engine's instruction set (gemmSIMD).
	name string

	// pairs2 adds the terms to c0 and c1 two at a time — per pair,
	// c += a[x]·b_x + a[x+1]·b_{x+1} — and a last odd term alone (NN, TN).
	pairs2 func(c0, c1, a0, a1, b []float64, kn, as, bs int)
	// pairs1 is pairs2 for one row.
	pairs1 func(c, a, b []float64, kn, as, bs int)

	// The NT panel form (ntPanelRows) runs on SIMD strips only — in Go the
	// dot form is faster — so these stay nil on an engine of Go strips.
	//
	// seq2 adds to c0 and c1 the sums Σ a[x]·b_x accumulated from +0 one
	// term at a time in increasing x, with a stride 1: per element, the
	// dot form's accumulator (ntDotRows), then c += sum.
	seq2 func(c0, c1, a0, a1, b []float64, kn, bs int)
	// seq1 is seq2 for one row.
	seq1 func(c, a, b []float64, kn, bs int)
	// transpose writes the n×k matrix src into dst as k×n.
	transpose func(dst, src []float64, n, k int)

	// panels recycles *[]float64 scratch for the NT panel form.
	panels sync.Pool
}

// newGemmEngine returns an engine over the plain Go strips.
func newGemmEngine() *gemmEngine {
	return &gemmEngine{name: "go", pairs2: addPairs2, pairs1: addPairs1}
}

// gemm runs the GEMMs: the widest strips the CPU and OS support (decided
// once, here).
var gemm = gemmEngines()[0]

// gemmEngines returns an engine for each set of strips the CPU and OS can
// run, widest first: the SIMD engines (gemmSIMD), then the Go strips.
// Every one computes the same bits (FuzzGEMMKernels).
func gemmEngines() []*gemmEngine {
	return append(gemmSIMD(), newGemmEngine())
}

func addPairs2(c0, c1, a0, a1, b []float64, kn, as, bs int) {
	n := len(c0)
	x := 0
	for ; x+1 < kn; x += 2 {
		addRows22(c0, c1, b[x*bs:x*bs+n], b[(x+1)*bs:(x+1)*bs+n], a0[x*as], a0[(x+1)*as], a1[x*as], a1[(x+1)*as])
	}
	if x < kn {
		addRows21(c0, c1, b[x*bs:x*bs+n], a0[x*as], a1[x*as])
	}
}

func addPairs1(c, a, b []float64, kn, as, bs int) {
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
func addRows22(c0, c1, b0, b1 []float64, a00, a01, a10, a11 float64) {
	c1 = c1[:len(c0)]
	b0 = b0[:len(c0)]
	b1 = b1[:len(c0)]
	for j, bv0 := range b0 {
		bv1 := b1[j]
		c0[j] += float64(a00*bv0) + float64(a01*bv1)
		c1[j] += float64(a10*bv0) + float64(a11*bv1)
	}
}

//go:noinline
func addRows21(c0, c1, b []float64, a0, a1 float64) {
	c1 = c1[:len(c0)]
	b = b[:len(c0)]
	for j, bv := range b {
		c0[j] += float64(a0 * bv)
		c1[j] += float64(a1 * bv)
	}
}

//go:noinline
func addRow12(c, b0, b1 []float64, a0, a1 float64) {
	b0 = b0[:len(c)]
	b1 = b1[:len(c)]
	for j, bv0 := range b0 {
		c[j] += float64(a0*bv0) + float64(a1*b1[j])
	}
}

//go:noinline
func addRow11(c, b []float64, a float64) {
	b = b[:len(c)]
	for j, bv := range b {
		c[j] += float64(a * bv)
	}
}

// busy is the process's one CPU budget: the goroutines computing right
// now. A client worker counts itself while it trains, a GEMM or sanitize
// helper until it returns, so helpers fork only onto cores no worker holds:
// a round whose clients fill GOMAXPROCS cores forks none, while its tail, a
// lone client or an evaluation on the server still fans out.
var busy atomic.Int64

// AddBusy counts delta goroutines into the budget (out of it, when
// negative). It never waits: a worker over GOMAXPROCS still runs.
func AddBusy(delta int) { busy.Add(int64(delta)) }

// Busy reports the budget's count.
func Busy() int { return int(busy.Load()) }

// TakeHelpers takes up to want helper goroutines from the budget — no more
// than GOMAXPROCS−1, read at the call, and no more than the cores left
// idle — without blocking, and returns how many it took. Each helper gives
// itself back with AddBusy(-1); Fork does that for the helpers it runs.
func TakeHelpers(want int) int {
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		n := busy.Load()
		take := min(int64(want), procs-1, procs-n)
		if take <= 0 {
			return 0
		}
		if busy.CompareAndSwap(n, n+take) {
			return int(take)
		}
	}
}

// gemmHelpers takes the helpers for a GEMM over rows output rows and flops
// multiply-adds from the budget: 0 when the work is too small to amortize
// them or no core is idle. A non-zero count must be handed to forkRows,
// which gives them back.
func gemmHelpers(rows, flops int) int {
	if flops < gemmParallelFlops {
		return 0
	}
	return TakeHelpers(rows - 1)
}

// forkRows invokes fn over disjoint sub-ranges of [0, rows) on the calling
// goroutine and up to extra helpers (taken by gemmHelpers), one range per
// goroutine, through Fork. Only the kernels' parallel path calls it, so the
// serial path builds no closure.
func forkRows(rows, extra int, fn func(lo, hi int)) {
	chunk := (rows + extra) / (extra + 1)
	Fork((rows+chunk-1)/chunk, extra, func(_, c int) { fn(c*chunk, min((c+1)*chunk, rows)) })
}

// Fork runs fn(w, i) for every i in [0, n): on the calling goroutine, as
// worker w = 0, and on extra helpers, workers 1…extra, that the caller took
// with TakeHelpers. Every worker pulls indices from one atomic cursor, so
// which worker runs an index is up to the scheduler: fn's result must
// depend on i alone, and w may only pick the worker's own scratch. Fork
// returns once every index is done and every helper is back in the budget;
// helpers beyond n−1 are given back unused. With no helpers it runs every
// index on the caller; a caller whose serial path must not allocate calls
// Fork only when it got some, since fn's closure is built at the call.
func Fork(n, extra int, fn func(w, i int)) {
	if spare := extra - max(n-1, 0); spare > 0 {
		AddBusy(-spare)
		extra -= spare
	}
	j := &forkJob{n: n, fn: fn}
	j.wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go j.help(w)
	}
	j.work(0)
	j.wg.Wait()
}

// forkJob is one Fork's shared state, one allocation per fork.
type forkJob struct {
	wg     sync.WaitGroup
	cursor atomic.Int64
	n      int
	fn     func(w, i int)
}

// work runs fn as worker w until the cursor passes n.
func (j *forkJob) work(w int) {
	for i := int(j.cursor.Add(1)) - 1; i < j.n; i = int(j.cursor.Add(1)) - 1 {
		j.fn(w, i)
	}
}

// help is a helper's whole life: work, then give its core back.
func (j *forkJob) help(w int) {
	defer j.wg.Done()
	defer AddBusy(-1)
	j.work(w)
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
	gemm.addMatMul(dst.data, a.data, b.data, m, n, k)
}

// addMatMul is the NN GEMM body: cd += ad·bd for row-major ad (m×k),
// bd (k×n), cd (m×n).
func (e *gemmEngine) addMatMul(cd, ad, bd []float64, m, n, k int) {
	if extra := gemmHelpers(m, m*n*k); extra > 0 {
		forkRows(m, extra, func(lo, hi int) { e.nnRows(cd, ad, bd, n, k, lo, hi) })
		return
	}
	e.nnRows(cd, ad, bd, n, k, 0, m)
}

// nnRows computes output rows [lo, hi) of the NN GEMM, one block of
// gemmBlockK reduction terms at a time.
func (e *gemmEngine) nnRows(cd, ad, bd []float64, n, k, lo, hi int) {
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
	gemm.addMatMulT(dst.data, a.data, b.data, m, n, k)
}

// ntPanelPays reports whether an NT GEMM with m output rows and n output
// columns pays for the panel form on SIMD strips — a property of the
// operand shape alone.
func ntPanelPays(m, n int) bool { return m >= gemmPanelMinRows && n >= gemmPanelMinWidth }

// addMatMulT is the NT GEMM body: cd += ad·bdᵀ for row-major ad (m×k),
// bd (n×k), cd (m×n). With SIMD strips, shapes past ntPanelPays copy bdᵀ
// into a pooled k×n panel once and run seq strips over it (ntPanelRows);
// the rest take the dot form (ntDotRows).
func (e *gemmEngine) addMatMulT(cd, ad, bd []float64, m, n, k int) {
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
func (e *gemmEngine) scratch(size int) *[]float64 {
	p, _ := e.panels.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	if cap(*p) < size {
		*p = make([]float64, size)
	}
	*p = (*p)[:size]
	return p
}

// ntDotRows computes output rows [lo, hi) of the NT GEMM as dot products:
// two dots share each streamed a-row for instruction-level parallelism.
func ntDotRows(cd, ad, bd []float64, n, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		j := 0
		for ; j+1 < n; j += 2 {
			b0 := bd[j*k : (j+1)*k]
			b0 = b0[:len(ai)]
			b1 := bd[(j+1)*k : (j+2)*k]
			b1 = b1[:len(ai)]
			var s0, s1 float64
			for x, av := range ai {
				s0 += float64(av * b0[x])
				s1 += float64(av * b1[x])
			}
			ci[j] += s0
			ci[j+1] += s1
		}
		for ; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			bj = bj[:len(ai)]
			var s float64
			for x, av := range ai {
				s += float64(av * bj[x])
			}
			ci[j] += s
		}
	}
}

// ntPanelRows computes output rows [lo, hi) of the NT GEMM from bt = bdᵀ
// (k×n): row i of the output adds Σ_x a[i][x]·bt[x], accumulated from +0 in
// increasing x — per element, the dot form's accumulator.
func (e *gemmEngine) ntPanelRows(cd, ad, bt []float64, n, k, lo, hi int) {
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
	gemm.addMatMulTN(dst.data, a.data, b.data, m, n, k)
}

// addMatMulTN is the TN GEMM body: cd += adᵀ·bd for row-major ad (k×m),
// bd (k×n), cd (m×n).
func (e *gemmEngine) addMatMulTN(cd, ad, bd []float64, m, n, k int) {
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
func (e *gemmEngine) tnRows(cd, ad, bd []float64, m, n, k, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		e.pairs2(cd[i*n:(i+1)*n], cd[(i+1)*n:(i+2)*n], ad[i:], ad[i+1:], bd, k, m, n)
	}
	if i < hi {
		e.pairs1(cd[i*n:(i+1)*n], ad[i:], bd, k, m, n)
	}
}
