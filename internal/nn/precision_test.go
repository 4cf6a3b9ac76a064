package nn

import (
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

// fp32Tol is the relative parity bar between the fp32 bulk engine and the
// pinned fp64 reference oracle. The f32 kernels accumulate in float32 over
// at most a few thousand terms, so 1e-4 relative is conservative.
const fp32Tol = 1e-4

func relErr(a, b float64) float64 { return math.Abs(a-b) / (1 + math.Abs(b)) }

func maxRelDiff(a, b []*tensor.Tensor) float64 {
	var m float64
	for i := range a {
		bd := b[i].Data()
		for j, v := range a[i].Data() {
			if d := relErr(v, bd[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// checkPrecisionParity runs identical batches through an fp64-pinned model
// and its fp32 twin and asserts logits, per-example losses, batch-summed
// gradients and per-example recovered gradients stay within fp32Tol relative.
func checkPrecisionParity(t *testing.T, spec Spec, inLen, classes int, seed int64) {
	t.Helper()
	ref, f32 := twinModels(spec, seed)
	f32.SetPrecision(tensor.PrecisionFP32)
	if f32.Precision() != tensor.PrecisionFP32 {
		t.Fatalf("Precision() = %q after SetPrecision(fp32)", f32.Precision())
	}
	rng := tensor.NewRNG(seed + 1000)
	scratchRef := tensor.ZerosLike(ref.Grads())
	scratch32 := tensor.ZerosLike(f32.Grads())
	for iter := 0; iter < 3; iter++ {
		xs, ys := randomBatch(rng, 6, inLen, classes)

		refLoss := ref.BatchPass(xs, ys)
		gotLoss := f32.BatchPass(xs, ys)
		if d := relErr(gotLoss, refLoss); d > fp32Tol {
			t.Fatalf("iter %d: fp32 mean loss diverges by %g (got %v, fp64 %v)", iter, d, gotLoss, refLoss)
		}

		ref.ZeroGrads()
		f32.ZeroGrads()
		ref.AccumBatchGrads()
		f32.AccumBatchGrads()
		if d := maxRelDiff(f32.Grads(), ref.Grads()); d > fp32Tol {
			t.Fatalf("iter %d: fp32 batch-summed gradients diverge by %g", iter, d)
		}

		for i := range xs {
			ref.ExampleGrads(i, scratchRef)
			f32.ExampleGrads(i, scratch32)
			if d := maxRelDiff(scratch32, scratchRef); d > fp32Tol {
				t.Fatalf("iter %d: fp32 example %d gradient diverges by %g", iter, i, d)
			}
		}
	}
}

// TestPrecisionParityCancerMLP pins the fp32 engine against the fp64 oracle
// on the cancer-scale tabular MLP.
func TestPrecisionParityCancerMLP(t *testing.T) {
	checkPrecisionParity(t, TabularMLP(30, 16, 2), 30, 2, 41)
}

// TestPrecisionParityMNISTCNN pins the fp32 engine against the fp64 oracle
// on the paper's mnist-scale CNN.
func TestPrecisionParityMNISTCNN(t *testing.T) {
	checkPrecisionParity(t, ImageCNN(1, 14, 14, 10), 14*14, 10, 42)
}

// TestPrecisionRoundTripRestoresFP64 pins that switching a model to fp32 and
// back to fp64 restores bit-exact fp64 behavior — the oracle stays intact.
func TestPrecisionRoundTripRestoresFP64(t *testing.T) {
	spec := TabularMLP(12, 9, 3)
	ref, m := twinModels(spec, 7)
	rng := tensor.NewRNG(8)
	xs, ys := randomBatch(rng, 5, 12, 3)
	want := ref.BatchPass(xs, ys)

	m.SetPrecision(tensor.PrecisionFP32)
	m.BatchPass(xs, ys)
	m.SetPrecision(tensor.PrecisionFP64)
	if got := m.BatchPass(xs, ys); got != want {
		t.Fatalf("fp64 loss after fp32 round-trip = %v, want bit-identical %v", got, want)
	}
	ref.ZeroGrads()
	m.ZeroGrads()
	ref.AccumBatchGrads()
	m.AccumBatchGrads()
	if d := maxAbsDiff(m.Grads(), ref.Grads()); d != 0 {
		t.Fatalf("fp64 gradients after fp32 round-trip differ by %v, want 0", d)
	}
}

// TestPrecisionTrainingTrajectory runs a few SGD steps on both engines and
// asserts the fp32 trajectory tracks the fp64 one — the end-to-end bar the
// per-op parity tests compose into.
func TestPrecisionTrainingTrajectory(t *testing.T) {
	ref, f32 := twinModels(TabularMLP(20, 12, 4), 11)
	f32.SetPrecision(tensor.PrecisionFP32)
	rng := tensor.NewRNG(12)
	for step := 0; step < 10; step++ {
		xs, ys := randomBatch(rng, 8, 20, 4)
		ref.ZeroGrads()
		f32.ZeroGrads()
		ref.BatchPass(xs, ys)
		f32.BatchPass(xs, ys)
		ref.AccumBatchGrads()
		f32.AccumBatchGrads()
		ref.SGDStep(0.1, ref.Grads())
		f32.SGDStep(0.1, f32.Grads())
	}
	if d := maxRelDiff(f32.Params(), ref.Params()); d > 50*fp32Tol {
		t.Fatalf("fp32 parameters drift %g from fp64 after 10 steps", d)
	}
	// Predictions must agree on a held-out batch.
	xs, _ := randomBatch(rng, 16, 20, 4)
	got, want := f32.PredictBatch(xs), ref.PredictBatch(xs)
	agree := 0
	for i := range got {
		if got[i] == want[i] {
			agree++
		}
	}
	if agree < len(got)-1 {
		t.Fatalf("fp32/fp64 predictions agree on only %d/%d held-out examples", agree, len(got))
	}
}
