package core

import (
	"math"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// localSGDReference is the original per-example implementation of localSGD,
// retained verbatim as the semantic oracle for the batched engine: one
// Forward/Backward per example, no GEMM batching, no arena, sanitization in
// example order on the calling goroutine.
func localSGDReference(env *fl.ClientEnv, sanitize sanitizer) ([]*tensor.Tensor, fl.ClientStats) {
	start := time.Now()
	global := tensor.CloneAll(env.Model.Params())
	var normSum float64
	var normN int

	for l := 0; l < env.Cfg.LocalIters; l++ {
		xs, ys := env.Data.Batch(l, env.Cfg.BatchSize)
		if sanitize == nil && l > 0 {
			// Batched fast path (non-private training): accumulate the batch
			// gradient in the shared buffers without materializing
			// per-example copies — the execution model a conventional
			// framework uses, and the baseline Table III compares against.
			env.Model.ZeroGrads()
			for j, x := range xs {
				logits := env.Model.Forward(x)
				_, g := nn.SoftmaxCrossEntropy(logits, ys[j])
				env.Model.BackwardFromLoss(g)
			}
			env.Model.SGDStep(env.Cfg.LR/float64(len(xs)), env.Model.Grads())
			continue
		}
		// Per-example path: Fed-CDP sanitization needs each example's
		// gradient; the first iteration also records gradient norms.
		batch := tensor.ZerosLike(env.Model.Grads())
		for j, x := range xs {
			_, g := env.Model.ExampleGradient(x, ys[j])
			if l == 0 {
				normSum += tensor.GroupL2Norm(g)
				normN++
			}
			if sanitize != nil {
				sanitize(l, j, g)
			}
			tensor.AddAllScaled(batch, 1/float64(len(xs)), g)
		}
		env.Model.SGDStep(env.Cfg.LR, batch)
	}

	stats := fl.ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Since(start)}
	if normN > 0 {
		stats.MeanGradNorm = normSum / float64(normN)
	}
	return fl.Delta(env.Model.Params(), global), stats
}

// runClientUpdate executes one client's local training for one round and
// returns its update ΔW — through the strategy (the production batched path)
// or, with reference set, through localSGDReference with the same per-example
// sanitizer. The environment (model init, data shard, noise key) is
// reconstructed identically for every call, exactly as the runtimes build it.
func runClientUpdate(t *testing.T, dsName string, strat fl.Strategy, reference bool, iters int) ([]*tensor.Tensor, fl.ClientStats) {
	t.Helper()
	spec, err := dataset.Get(dsName)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 7)
	model := nn.Build(spec.ModelSpec(), tensor.Split(7, 1))
	arena := tensor.NewArena()
	model.UseArena(arena)
	noise := fl.ClientNoise(7, 0, 3)
	env := &fl.ClientEnv{
		ClientID: 3,
		Round:    0,
		Model:    model,
		Data:     ds.Client(3),
		RNG:      tensor.Split(7, 4, 0, 3),
		Cfg: fl.RoundConfig{
			BatchSize: spec.BatchSize, LocalIters: iters, LR: spec.LR,
			TotalRounds: 5,
		},
		Arena: arena,
		Noise: &noise,
	}
	if !reference {
		return strat.ClientUpdate(env)
	}
	var sanitize sanitizer
	if f, ok := strat.(FedCDP); ok {
		sanitize = f.sanitizer(env)
	}
	return localSGDReference(env, sanitize)
}

// checkEngineParity pins the batched engine to the per-example reference on
// one full client update: the resulting ΔW must agree to 1e-9 and the
// first-iteration gradient-norm statistics must match. Every noise value is
// keyed by (iteration, example, layer, offset) rather than drawn from a
// stream, so the two paths need no ordering discipline between them.
func checkEngineParity(t *testing.T, dsName string, strat fl.Strategy, iters int) {
	t.Helper()
	ref, refStats := runClientUpdate(t, dsName, strat, true, iters)
	got, gotStats := runClientUpdate(t, dsName, strat, false, iters)
	if len(ref) != len(got) {
		t.Fatalf("update tensor counts differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		for j, v := range ref[i].Data() {
			if d := math.Abs(v - got[i].Data()[j]); d > 1e-9 {
				t.Fatalf("tensor %d element %d: engines differ by %v", i, j, d)
			}
		}
	}
	if d := math.Abs(refStats.MeanGradNorm - gotStats.MeanGradNorm); d > 1e-9 {
		t.Fatalf("MeanGradNorm differs by %v (%v vs %v)", d, refStats.MeanGradNorm, gotStats.MeanGradNorm)
	}
}

func TestEngineParityNonPrivateTabular(t *testing.T) {
	checkEngineParity(t, "cancer", NonPrivate{}, 4)
}

func TestEngineParityNonPrivateCNN(t *testing.T) {
	checkEngineParity(t, "mnist", NonPrivate{}, 3)
}

func TestEngineParityFedCDP(t *testing.T) {
	// Parity under sanitization also proves both paths hand every example
	// the same (iteration, example) noise key.
	checkEngineParity(t, "mnist", NewFedCDP(4, 0.01), 3)
}

func TestEngineParityFedCDPDecay(t *testing.T) {
	checkEngineParity(t, "cancer", NewFedCDPDecay(6, 2, 0.01), 3)
}
