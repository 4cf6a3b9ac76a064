package nn

import (
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

const parityTol = 1e-9

// refModel/batchModel build two models with identical weights so the
// per-example reference path and the batched engine can be compared on the
// same parameters without cache interference.
func twinModels(spec Spec, seed int64) (ref, batch *Model) {
	ref = Build(spec, tensor.NewRNG(seed))
	batch = Build(spec, tensor.NewRNG(seed))
	batch.SetParams(ref.Params())
	return ref, batch
}

func randomBatch(rng *tensor.RNG, b, n, classes int) ([]*tensor.Tensor, []int) {
	xs := make([]*tensor.Tensor, b)
	ys := make([]int, b)
	for i := range xs {
		xs[i] = tensor.New(n)
		rng.FillUniform(xs[i], -1, 1)
		ys[i] = int(rng.Float64() * float64(classes))
	}
	return xs, ys
}

func maxAbsDiff(a, b []*tensor.Tensor) float64 {
	var m float64
	for i := range a {
		for j, v := range a[i].Data() {
			if d := math.Abs(v - b[i].Data()[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// checkBatchParity asserts ForwardBatch/BackwardBatch/ExampleGrads/
// AccumGrads agree with the per-example Forward/Backward reference on a
// random batch, to parityTol.
func checkBatchParity(t *testing.T, spec Spec, inLen, classes int, seed int64) {
	t.Helper()
	ref, bm := twinModels(spec, seed)
	rng := tensor.NewRNG(seed + 100)
	const B = 4
	xs, ys := randomBatch(rng, B, inLen, classes)

	// Reference: per-example forward/backward with fresh buffers.
	refLoss := make([]float64, B)
	refGrads := make([][]*tensor.Tensor, B)
	refLogits := make([]*tensor.Tensor, B)
	refDx := make([]*tensor.Tensor, B)
	for i, x := range xs {
		ref.ZeroGrads()
		logits := ref.Forward(x)
		refLogits[i] = logits.Clone()
		loss, g := SoftmaxCrossEntropy(logits, ys[i])
		refLoss[i] = loss
		refDx[i] = ref.BackwardFromLoss(g).Clone()
		refGrads[i] = tensor.CloneAll(ref.Grads())
	}

	// Batched engine.
	xb := Stack(nil, nil, xs)
	logits := bm.ForwardBatch(xb)
	for i := range xs {
		for j, v := range refLogits[i].Data() {
			if d := math.Abs(v - logits.At(i, j)); d > parityTol {
				t.Fatalf("logits[%d][%d] differ by %v", i, j, d)
			}
		}
	}
	lossGrad := tensor.New(B, classes)
	losses := make([]float64, B)
	SoftmaxCrossEntropyBatch(lossGrad, losses, logits, ys)
	for i, l := range losses {
		if math.Abs(l-refLoss[i]) > parityTol {
			t.Fatalf("loss[%d] = %v, reference %v", i, l, refLoss[i])
		}
	}
	dx := bm.BackwardBatch(lossGrad)
	for i := range xs {
		for j, v := range refDx[i].Data() {
			if d := math.Abs(v - dx.At(i, j)); d > parityTol {
				t.Fatalf("input grad[%d][%d] differs by %v", i, j, d)
			}
		}
	}

	// Per-example recovery.
	scratch := tensor.ZerosLike(bm.Grads())
	for i := range xs {
		bm.ExampleGrads(i, scratch)
		if d := maxAbsDiff(scratch, refGrads[i]); d > parityTol {
			t.Fatalf("example %d recovered gradient differs by %v", i, d)
		}
	}

	// Batch-summed accumulation equals the sum of per-example gradients.
	bm.ZeroGrads()
	bm.AccumBatchGrads()
	want := tensor.ZerosLike(ref.Grads())
	for i := range xs {
		tensor.AddAllScaled(want, 1, refGrads[i])
	}
	if d := maxAbsDiff(bm.Grads(), want); d > parityTol {
		t.Fatalf("batch-summed gradients differ by %v", d)
	}
}

func TestBatchParityDense(t *testing.T) {
	spec := Spec{Layers: []LayerSpec{
		{Kind: "dense", In: 11, Out: 7},
		{Kind: ActReLU},
		{Kind: "dense", In: 7, Out: 4},
	}}
	checkBatchParity(t, spec, 11, 4, 1)
}

func TestBatchParityDenseSigmoidTanh(t *testing.T) {
	spec := Spec{Layers: []LayerSpec{
		{Kind: "dense", In: 9, Out: 8},
		{Kind: ActSigmoid},
		{Kind: "dense", In: 8, Out: 8},
		{Kind: ActTanh},
		{Kind: "dense", In: 8, Out: 3},
	}}
	checkBatchParity(t, spec, 9, 3, 2)
}

func TestBatchParityConv(t *testing.T) {
	spec := Spec{Layers: []LayerSpec{
		{Kind: "conv2d", InC: 2, InH: 8, InW: 8, OutC: 3, K: 3, Stride: 1, Pad: 1},
		{Kind: ActReLU},
		{Kind: "flatten"},
		{Kind: "dense", In: 3 * 8 * 8, Out: 5},
	}}
	checkBatchParity(t, spec, 2*8*8, 5, 3)
}

func TestBatchParityConvStridePad(t *testing.T) {
	spec := Spec{Layers: []LayerSpec{
		{Kind: "conv2d", InC: 1, InH: 9, InW: 7, OutC: 4, K: 5, Stride: 2, Pad: 2},
		{Kind: ActReLU},
		{Kind: "flatten"},
		{Kind: "dense", In: 4 * 5 * 4, Out: 3},
	}}
	checkBatchParity(t, spec, 9*7, 3, 4)
}

func TestBatchParityPool(t *testing.T) {
	spec := Spec{Layers: []LayerSpec{
		{Kind: "conv2d", InC: 1, InH: 8, InW: 8, OutC: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: "maxpool2", InC: 2, InH: 8, InW: 8},
		{Kind: ActReLU},
		{Kind: "flatten"},
		{Kind: "dense", In: 2 * 4 * 4, Out: 4},
	}}
	checkBatchParity(t, spec, 64, 4, 5)
}

func TestBatchParityPaperCNN(t *testing.T) {
	checkBatchParity(t, ImageCNN(1, 14, 14, 10), 14*14, 10, 6)
}

func TestBatchParityWithArena(t *testing.T) {
	// Parity must survive arena-backed buffers and repeated invocation
	// (buffer reuse across iterations).
	spec := ImageCNN(1, 12, 12, 6)
	ref, bm := twinModels(spec, 9)
	arena := tensor.NewArena()
	bm.UseArena(arena)
	rng := tensor.NewRNG(99)
	scratch := tensor.ZerosLike(bm.Grads())
	for iter := 0; iter < 3; iter++ {
		xs, ys := randomBatch(rng, 3, 144, 6)
		refGrads := make([][]*tensor.Tensor, len(xs))
		for i, x := range xs {
			_, g := ref.ExampleGradient(x, ys[i])
			refGrads[i] = g
		}
		visited := 0
		bm.BatchGradients(xs, ys, scratch, func(i int, g []*tensor.Tensor) {
			if d := maxAbsDiff(g, refGrads[i]); d > parityTol {
				t.Fatalf("iter %d example %d gradient differs by %v", iter, i, d)
			}
			visited++
		})
		if visited != len(xs) {
			t.Fatalf("visited %d examples, want %d", visited, len(xs))
		}
	}
}

// TestBatchPassSkipsInputGrad pins BatchPass, which leaves the first
// layer's input gradient uncomputed, to the full backward bit for bit:
// the same losses and every example's recovered gradients, on the paper
// CNN (conv first) and an MLP (dense first).
func TestBatchPassSkipsInputGrad(t *testing.T) {
	for name, c := range map[string]struct {
		spec           Spec
		inLen, classes int
	}{
		"cnn": {ImageCNN(1, 12, 12, 6), 144, 6},
		"mlp": {TabularMLP(9, 8, 3), 9, 3},
	} {
		full, skip := twinModels(c.spec, 11)
		xs, ys := randomBatch(tensor.NewRNG(12), 5, c.inLen, c.classes)

		logits := full.ForwardBatch(Stack(nil, nil, xs))
		lossGrad := tensor.New(len(xs), c.classes)
		losses := make([]float64, len(xs))
		SoftmaxCrossEntropyBatch(lossGrad, losses, logits, ys)
		if full.BackwardBatch(lossGrad) == nil {
			t.Fatalf("%s: the full backward returned no input gradient", name)
		}
		var want float64
		for _, l := range losses {
			want += l
		}
		want /= float64(len(xs))

		if got := skip.BatchPass(xs, ys); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: BatchPass loss %v, full backward %v", name, got, want)
		}
		for i, l := range skip.lossVals[:len(xs)] {
			if math.Float64bits(l) != math.Float64bits(losses[i]) {
				t.Fatalf("%s: example %d loss %v, full backward %v", name, i, l, losses[i])
			}
		}
		switch l := skip.Layers[0].(type) {
		case *Conv2D:
			if l.dxB != nil {
				t.Fatalf("%s: BatchPass computed the conv input gradient", name)
			}
		case *Dense:
			if l.dxB != nil {
				t.Fatalf("%s: BatchPass computed the dense input gradient", name)
			}
		}
		g, h := tensor.ZerosLike(full.Grads()), tensor.ZerosLike(skip.Grads())
		for i := range xs {
			full.ExampleGrads(i, g)
			skip.ExampleGrads(i, h)
			for p := range g {
				for j, v := range g[p].Data() {
					if math.Float64bits(v) != math.Float64bits(h[p].Data()[j]) {
						t.Fatalf("%s: example %d param %d elem %d: BatchPass %v, full backward %v",
							name, i, p, j, h[p].Data()[j], v)
					}
				}
			}
		}
	}
}

// TestDenseExampleGradsAllocatesNothing pins Dense.ExampleGrads to zero
// allocations per call at the adult MLP's input layer (batch 3, 105 → 32):
// examples are recovered concurrently on raw rows, and the row pass's
// coefficient must not escape to the heap.
func TestDenseExampleGradsAllocatesNothing(t *testing.T) {
	rng := tensor.NewRNG(5)
	d := NewDense(105, 32, rng)
	x, g := tensor.New(3, 105), tensor.New(3, 32)
	rng.FillUniform(x, -1, 1)
	rng.FillUniform(g, -1, 1)
	d.ForwardBatch(x)
	d.BackwardBatch(g, false)
	dst := []*tensor.Tensor{tensor.New(32, 105), tensor.New(32)}
	if n := testing.AllocsPerRun(100, func() { d.ExampleGrads(2, dst) }); n != 0 {
		t.Fatalf("Dense.ExampleGrads: %v allocations per call, want 0", n)
	}
}

func TestBatchGradientsMeanLoss(t *testing.T) {
	spec := TabularMLP(10, 8, 3)
	ref, bm := twinModels(spec, 12)
	rng := tensor.NewRNG(13)
	xs, ys := randomBatch(rng, 5, 10, 3)
	var want float64
	for i, x := range xs {
		want += ref.Loss(x, ys[i])
	}
	want /= float64(len(xs))
	scratch := tensor.ZerosLike(bm.Grads())
	got := bm.BatchGradients(xs, ys, scratch, func(int, []*tensor.Tensor) {})
	if math.Abs(got-want) > parityTol {
		t.Fatalf("mean batch loss %v, want %v", got, want)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	spec := ImageCNN(1, 10, 10, 4)
	ref, bm := twinModels(spec, 21)
	rng := tensor.NewRNG(22)
	xs, _ := randomBatch(rng, 7, 100, 4)
	got := bm.PredictBatch(xs)
	for i, x := range xs {
		if want := ref.Predict(x); got[i] != want {
			t.Fatalf("prediction %d = %d, reference %d", i, got[i], want)
		}
	}
}

func TestStackValidatesLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stack must panic on ragged example lengths")
		}
	}()
	Stack(nil, nil, []*tensor.Tensor{tensor.New(3), tensor.New(4)})
}
