package fedcdp

// The bench harness: one benchmark per table and figure of the paper
// (regenerating its rows via internal/experiments at a reduced "quick" grid
// — run cmd/tables for the full versions), ablation benchmarks for the
// design decisions called out in DESIGN.md, and micro-benchmarks for the
// performance-critical primitives.
//
// These are developer instruments: CI runs each once to prove it still
// compiles and executes, and nothing compares their numbers. The repo's one
// perf gate is BENCHMARK.json + benchmark/ (`bash benchmark/run.sh`, and
// `-compare base.json head.json` between two result sets).
//
// Experiment benchmarks print their report once (first iteration) so that
// bench output doubles as a record of the regenerated rows.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedcdp/internal/accountant"
	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/experiments"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

var printOnce sync.Map

func runExperiment(b *testing.B, name string, scale float64) {
	b.Helper()
	e := config.Default()
	e.Experiment = config.ExperimentBlock{Name: name, Scale: scale}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(name, e)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(name, true); !done {
			rep.Fprint(os.Stdout)
		}
	}
}

// BenchmarkTable1 regenerates Table I (dataset setup, non-private accuracy
// and per-iteration cost).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", 1) }

// BenchmarkTable2 regenerates Table II (accuracy by K, Kt/K and method) on
// the quick grid.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", 0.5) }

// BenchmarkTable3 regenerates Table III (ms per local iteration by method).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", 1) }

// BenchmarkTable4 regenerates Table IV (accuracy by clipping bound) on the
// quick benchmark subset.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", 0.5) }

// BenchmarkTable5 regenerates Table V (accuracy by noise scale) on the quick
// benchmark subset.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", 0.5) }

// BenchmarkTable6 regenerates Table VI (privacy composition) at the paper's
// exact parameters.
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", 1) }

// BenchmarkTable7 regenerates Table VII (attack effectiveness by defense).
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7", 0.5) }

// BenchmarkFig1 regenerates Figure 1b (attack demos on non-private FL).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1", 0.5) }

// BenchmarkFig3 regenerates Figure 3 (gradient-norm decay).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3", 1) }

// BenchmarkFig4 regenerates Figure 4 (per-defense resilience matrix, LFW).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4", 0.5) }

// BenchmarkFig5 regenerates Figure 5 (communication-efficient FL).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5", 0.5) }

// --- Ablation benches (design decisions from DESIGN.md) ---

// BenchmarkAblationPerExampleVsBatch quantifies the cost of per-example
// gradient materialization (required by Fed-CDP) against batched
// accumulation (the non-private fast path) — the mechanism behind Table III.
func BenchmarkAblationPerExampleVsBatch(b *testing.B) {
	spec, err := dataset.Get("mnist")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.New(spec, 1)
	cd := ds.Client(0)
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	xs, ys := cd.Batch(0, 5)

	b.Run("per-example", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch := tensor.ZerosLike(m.Grads())
			for j, x := range xs {
				_, g := m.ExampleGradient(x, ys[j])
				tensor.AddAllScaled(batch, 0.2, g)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ZeroGrads()
			for j, x := range xs {
				logits := m.Forward(x)
				_, g := nn.SoftmaxCrossEntropy(logits, ys[j])
				m.BackwardFromLoss(g)
			}
		}
	})
}

// BenchmarkAblationFlatVsLayerClip compares the paper's per-layer clipping
// against flat whole-gradient clipping (Abadi et al.), reporting final
// accuracy for each.
func BenchmarkAblationFlatVsLayerClip(b *testing.B) {
	run := func(b *testing.B, flat bool) {
		for i := 0; i < b.N; i++ {
			spec, _ := dataset.Get("mnist")
			ds := dataset.New(spec, 42)
			hist, err := fl.Run(fl.Config{
				Data: ds, Model: spec.ModelSpec(),
				K: 12, Kt: 6, Rounds: 12,
				Round:       fl.RoundConfig{BatchSize: 5, LocalIters: 20, LR: spec.LR},
				Strategy:    core.FedCDP{Clip: dp.FixedClip{C: 4}, Sigma: 0.06, FlatClip: flat},
				Seed:        42,
				ValExamples: 150,
				EvalEvery:   100,
			})
			if err != nil {
				b.Fatal(err)
			}
			acc, _ := hist.FinalAccuracy()
			b.ReportMetric(acc, "final-acc")
		}
	}
	b.Run("layer-clip", func(b *testing.B) { run(b, false) })
	b.Run("flat-clip", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDecaySchedules compares clipping-decay schedules for
// Fed-CDP(decay), reporting final accuracy.
func BenchmarkAblationDecaySchedules(b *testing.B) {
	schedules := map[string]dp.ClipPolicy{
		"fixed":  dp.FixedClip{C: 4},
		"linear": dp.LinearDecay{From: 6, To: 2},
		"exp":    dp.ExpDecay{From: 6, Rate: 0.9, Min: 2},
		"step":   dp.StepDecay{From: 6, Factor: 0.5, Every: 5, Min: 2},
	}
	for name, policy := range schedules {
		policy := policy
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, _ := dataset.Get("mnist")
				ds := dataset.New(spec, 42)
				hist, err := fl.Run(fl.Config{
					Data: ds, Model: spec.ModelSpec(),
					K: 12, Kt: 6, Rounds: 12,
					Round:       fl.RoundConfig{BatchSize: 5, LocalIters: 20, LR: spec.LR},
					Strategy:    core.FedCDP{Clip: policy, Sigma: 0.06},
					Seed:        42,
					ValExamples: 150,
					EvalEvery:   100,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc, _ := hist.FinalAccuracy()
				b.ReportMetric(acc, "final-acc")
			}
		})
	}
}

// BenchmarkAblationAttackOptimizer compares L-BFGS (the paper's choice)
// against Adam on the same type-2 reconstruction, reporting the distance.
func BenchmarkAblationAttackOptimizer(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	ds := dataset.New(spec, 3)
	x, y := ds.Client(0).Get(0)
	m := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(3))
	_, gw, gb := m.Gradients(x, y)

	for _, opt := range []string{attack.OptLBFGS, attack.OptAdam} {
		opt := opt
		b.Run(opt, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := attack.Reconstruct(m, gw, gb, []int{y}, []*tensor.Tensor{x},
					attack.Config{Seed: 3, Optimizer: opt, MaxIters: 100})
				b.ReportMetric(res.Distance, "distance")
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

// --- Micro-benches for the performance-critical primitives ---

// BenchmarkGEMM measures the blocked MatMul kernel at a representative
// square size (the batched engine's workhorse).
func BenchmarkGEMM(b *testing.B) {
	rng := tensor.NewRNG(1)
	a := tensor.New(128, 128)
	c := tensor.New(128, 128)
	dst := tensor.New(128, 128)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(c, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
}

// BenchmarkGEMMShapes prices each GEMM the models run, at its own shape:
// the MNIST CNN's per-example conv GEMMs and its batch-5 dense layer
// (nn.ImageCNN at 1×28×28, the cnn-inproc setting) and the tabular MLP's
// batch-4 30→32 layer, each in the three variants it runs (a conv layer's
// forward is NN, its input gradient TN and its per-example weight gradient
// NT; a dense layer's forward is NT, its input gradient NN and its weight
// gradient TN). Sub-benchmarks are named layer/variant/m×n×k for
// C[m×n] over a reduction of length k. Run with -cpu 1 to price the serial
// kernels a saturated trainer runs.
func BenchmarkGEMMShapes(b *testing.B) {
	shapes := []struct {
		layer, variant string
		m, n, k        int
	}{
		{"conv1", "nn", 8, 196, 25}, {"conv1", "tn", 25, 196, 8}, {"conv1", "nt", 8, 25, 196},
		{"conv2", "nn", 16, 49, 200}, {"conv2", "tn", 200, 49, 16}, {"conv2", "nt", 16, 200, 49},
		{"dense", "nn", 5, 784, 10}, {"dense", "tn", 10, 784, 5}, {"dense", "nt", 5, 10, 784},
		{"mlp", "nn", 4, 30, 32}, {"mlp", "tn", 32, 30, 4}, {"mlp", "nt", 4, 32, 30},
	}
	for _, s := range shapes {
		s := s
		b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", s.layer, s.variant, s.m, s.n, s.k), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			dst := tensor.New(s.m, s.n)
			var x, y *tensor.Tensor
			var run func()
			switch s.variant {
			case "nn":
				x, y = tensor.New(s.m, s.k), tensor.New(s.k, s.n)
				run = func() { tensor.MatMul(dst, x, y) }
			case "tn":
				x, y = tensor.New(s.k, s.m), tensor.New(s.k, s.n)
				run = func() { tensor.MatMulTN(dst, x, y) }
			default:
				x, y = tensor.New(s.m, s.k), tensor.New(s.n, s.k)
				run = func() { tensor.MatMulT(dst, x, y) }
			}
			rng.FillUniform(x, -1, 1)
			rng.FillUniform(y, -1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkConvForwardBackward compares the per-example scalar convolution
// (reference) against the im2col+GEMM batched engine on the paper CNN's
// first conv layer at the MNIST benchmark batch size. The acceptance bar
// for the engine is ≥3× on forward+backward.
func BenchmarkConvForwardBackward(b *testing.B) {
	const batch = 5
	rng := tensor.NewRNG(1)
	xs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = tensor.New(1, 28, 28)
		rng.FillUniform(xs[i], 0, 1)
	}

	b.Run("naive-per-example", func(b *testing.B) {
		conv := nn.NewConv2D(1, 28, 28, 8, 5, 2, 2, tensor.NewRNG(2))
		grad := tensor.New(conv.OutLen())
		tensor.NewRNG(3).FillUniform(grad, -1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.ZeroGrads()
			for _, x := range xs {
				conv.Forward(x)
				conv.Backward(grad)
			}
		}
	})
	b.Run("im2col-batched", func(b *testing.B) {
		conv := nn.NewConv2D(1, 28, 28, 8, 5, 2, 2, tensor.NewRNG(2))
		arena := tensor.NewArena()
		xb := nn.Stack(arena, nil, xs)
		gradB := tensor.New(batch, conv.OutLen())
		tensor.NewRNG(3).FillUniform(gradB, -1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.ZeroGrads()
			conv.ForwardBatch(xb)
			conv.BackwardBatch(gradB, true)
			conv.AccumGrads()
		}
	})
}

// BenchmarkPerExampleGradExtraction compares full-model per-example gradient
// computation — what every Fed-CDP local iteration pays — between the
// reference path (one forward/backward per example) and the batched engine
// (one batched pass + per-example recovery from the batch buffers), on the
// paper's MNIST CNN at its benchmark batch size.
func BenchmarkPerExampleGradExtraction(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	rng := tensor.NewRNG(2)
	const batch = 5
	xs := make([]*tensor.Tensor, batch)
	ys := make([]int, batch)
	for i := range xs {
		xs[i] = tensor.New(1, 28, 28)
		rng.FillUniform(xs[i], 0, 1)
		ys[i] = i % 10
	}

	b.Run("reference", func(b *testing.B) {
		m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batchG := tensor.ZerosLike(m.Grads())
			for j, x := range xs {
				_, g := m.ExampleGradient(x, ys[j])
				tensor.AddAllScaled(batchG, 1/float64(batch), g)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
		arena := tensor.NewArena()
		m.UseArena(arena)
		scratch := tensor.ZerosLike(m.Grads())
		batchG := tensor.ZerosLike(m.Grads())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range batchG {
				t.Zero()
			}
			m.BatchGradients(xs, ys, scratch, func(j int, g []*tensor.Tensor) {
				tensor.AddAllScaled(batchG, 1/float64(batch), g)
			})
		}
	})
}

// BenchmarkPerExampleGradientCNN measures one forward/backward pass of the
// paper's MNIST CNN.
func BenchmarkPerExampleGradientCNN(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	x := tensor.New(1, 28, 28)
	tensor.NewRNG(2).FillUniform(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExampleGradient(x, i%10)
	}
}

// BenchmarkSanitize measures clip+noise on CNN-sized gradients across the
// noise engines: the sequential math/rand reference, the fused counter
// kernel (serial), and the sharded counter kernel at GOMAXPROCS workers.
// The acceptance bar for the counter engine is ≥4× over the scalar path on
// ≥8 cores (the parallel sub-benchmark; the serial counter kernel already
// wins by fusing the clip scale into the noise traversal and skipping
// math/rand's stream indirection).
func BenchmarkSanitize(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	grads := tensor.CloneAll(m.Grads())

	b.Run("reference", func(b *testing.B) {
		rng := tensor.NewRNG(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.Sanitize(grads, 4, 6, rng)
		}
	})
	b.Run("counter", func(b *testing.B) {
		noise := tensor.NewCounterRNG(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.SanitizeCounter(grads, 4, 6, noise.Derive(int64(i)))
		}
	})
	b.Run("counter-par", func(b *testing.B) {
		noise := tensor.NewCounterRNG(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dp.SanitizeCounterPar(grads, 4, 6, noise.Derive(int64(i)), 0)
		}
	})
}

// BenchmarkNoiseEngine establishes the scalar-vs-counter trajectory on the
// two axes the sanitize pipeline stresses: raw Gaussian throughput over a
// model-update-sized buffer, and a full Fed-CDP local iteration (batched
// pass + per-example recovery + fused sanitize of every example). Both
// counter variants are exact — bit-identical at any worker count — so the
// speedup column is free of reproducibility tradeoffs.
func BenchmarkNoiseEngine(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	n := model.NumParams()
	buf := tensor.New(n)

	b.Run(fmt.Sprintf("gauss/reference/n=%d", n), func(b *testing.B) {
		rng := tensor.NewRNG(3)
		for i := 0; i < b.N; i++ {
			rng.AddNormal(buf, 1)
		}
	})
	b.Run(fmt.Sprintf("gauss/counter/n=%d", n), func(b *testing.B) {
		noise := tensor.NewCounterRNG(3)
		for i := 0; i < b.N; i++ {
			noise.AddNormalBulk(buf.Data(), uint64(i)*uint64(n), 1)
		}
	})
	// The kernel alone at 4,096 elements, on the engine this CPU selects
	// (internal/tensor's BenchmarkNoiseEngineKernel prices each engine).
	b.Run("gauss/kernel/n=4096", func(b *testing.B) {
		const k = 4096
		noise := tensor.NewCounterRNG(3)
		dst := buf.Data()[:k]
		for i := 0; i < b.N; i++ {
			noise.ScaleAddNormalBulk(dst, uint64(i)*k, 0.5, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/elem")
	})

	// One Fed-CDP local iteration at the benchmark batch size: the
	// sequential dp.Sanitize stream against the keyed batch pipeline.
	iteration := func(b *testing.B, reference bool) {
		m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
		arena := tensor.NewArena()
		m.UseArena(arena)
		ds := dataset.New(spec, 1)
		xs, ys := ds.Client(0).Batch(0, spec.BatchSize)
		scratch := tensor.ZerosLike(m.Grads())
		batch := tensor.ZerosLike(m.Grads())
		bufs := make([][]*tensor.Tensor, len(xs))
		for i := range bufs {
			bufs[i] = tensor.ZerosLike(m.Grads())
		}
		rng := tensor.NewRNG(4)
		noise := tensor.NewCounterRNG(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range batch {
				t.Zero()
			}
			if reference {
				m.BatchGradients(xs, ys, scratch, func(j int, g []*tensor.Tensor) {
					dp.Sanitize(g, 4, 6, rng)
					tensor.AddAllScaled(batch, 1/float64(len(xs)), g)
				})
				continue
			}
			m.BatchPass(xs, ys)
			dp.SanitizeBatch(dp.BatchSanitizeJob{
				N:       len(xs),
				Recover: m.ExampleGrads,
				Sanitize: func(j int, g []*tensor.Tensor) {
					dp.SanitizeCounter(g, 4, 6, noise.Derive(int64(i), int64(j)))
				},
				Bufs:   bufs,
				Accum:  batch,
				Weight: 1 / float64(len(xs)),
			})
		}
	}
	b.Run("fedcdp-iter/reference", func(b *testing.B) { iteration(b, true) })
	b.Run("fedcdp-iter/counter", func(b *testing.B) { iteration(b, false) })
}

// BenchmarkSimnetScale measures hierarchical simnet deployments along the
// population axis — the scaling story of DESIGN.md's "Hierarchical
// aggregation": K=8 flat float fold (the SimnetRounds baseline shape), K=1,000
// under an 8-shard edge tree, and a K=100,000 / Kt=1,000 / 32-shard
// deployment (the acceptance scenario, 2 rounds at L=1). Every variant
// reports rounds/sec, wire bytes per round (from the fabric's write
// counter), and the post-run live heap — the scheduler's memory footprint
// is O(worker pool + cohort cursors), not O(K), which is what lets the
// 100k row exist at all.
func BenchmarkSimnetScale(b *testing.B) {
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		rounds int
	}{
		{"flat/k=8", core.Config{
			Dataset: "cancer", Method: core.MethodFedCDP,
			K: 8, Kt: 4, Rounds: 3, LocalIters: 2,
			Sigma: 0.06, Seed: 42, ValExamples: 40, EvalEvery: 100,
		}, 3},
		{"tree/k=1000", core.Config{
			Dataset: "cancer", Method: core.MethodFedCDP,
			K: 1000, Kt: 100, Rounds: 3, LocalIters: 2,
			Sigma: 0.06, Seed: 42, ValExamples: 40, EvalEvery: 100,
			Shards: 8, Sampler: fl.SamplerFloyd, Codec: fl.CodecBinary,
		}, 3},
		{"tree/k=100000", core.Config{
			Dataset: "cancer", Method: core.MethodFedCDP,
			K: 100_000, Kt: 1000, Rounds: 2, LocalIters: 1,
			Sigma: 0.06, Seed: 42, ValExamples: 40, EvalEvery: 100,
			Shards: 32, Sampler: fl.SamplerFloyd, Codec: fl.CodecBinary,
		}, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var wire int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.RunSimnet(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				wire = 0
				for _, r := range res.Rounds {
					wire += r.WireBytes
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tc.rounds*b.N)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(float64(wire)/float64(tc.rounds), "wire-B/round")
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
		})
	}
}

// BenchmarkRDPAccountant measures a full ε computation over the default
// order grid at the paper's MNIST scale (q=0.01, σ=6, 10000 steps).
func BenchmarkRDPAccountant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eps, _ := accountant.Epsilon(0.01, 6, 10000, 1e-5, nil)
		if eps <= 0 {
			b.Fatal("epsilon must be positive")
		}
	}
}

// BenchmarkGradMatch measures one attack-objective evaluation (value +
// input gradient) on the MNIST attack MLP.
func BenchmarkGradMatch(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	m := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(1))
	x := tensor.New(spec.Features)
	tensor.NewRNG(2).FillUniform(x, 0, 1)
	_, gw, gb := m.Gradients(x, 3)
	cand := x.Clone()
	tensor.NewRNG(4).AddNormal(cand, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GradMatch([]*tensor.Tensor{cand}, []int{3}, gw, gb)
	}
}

// BenchmarkFederatedRound measures one complete non-private federated round
// (8 clients in parallel, 20 local iterations each) on synthetic MNIST.
func BenchmarkFederatedRound(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	ds := dataset.New(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := fl.Run(fl.Config{
			Data: ds, Model: spec.ModelSpec(),
			K: 16, Kt: 8, Rounds: 1,
			Round:       fl.RoundConfig{BatchSize: 5, LocalIters: 20, LR: spec.LR},
			Strategy:    core.NonPrivate{},
			Seed:        int64(i),
			ValExamples: 10,
			EvalEvery:   100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingVsBarrierAggregation contrasts the server's update
// memory across cohort sizes: barrier aggregation materializes every one
// of the Kt updates before folding (O(Kt × model) — watch B/op grow
// linearly in kt), while the streaming fold passes each update through
// one reused scratch buffer into an O(model) accumulator (B/op and the
// update-KB metric stay flat in kt). The update-KB metric is the update
// state each path must hold live at once.
func BenchmarkStreamingVsBarrierAggregation(b *testing.B) {
	spec, _ := dataset.Get("mnist")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	params := m.Params()
	modelFloats := 0
	for _, p := range params {
		modelFloats += p.Len()
	}
	// fill stands in for "an update arrives": deterministic, cheap, and
	// identical work on both paths.
	fill := func(ts []*tensor.Tensor, k int) {
		for _, t := range ts {
			data := t.Data()
			for j := range data {
				data[j] = float64((k+j)%7) - 3
			}
		}
	}
	for _, kt := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("barrier/kt=%d", kt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				updates := make([][]*tensor.Tensor, kt)
				for k := range updates {
					updates[k] = tensor.ZerosLike(params)
					fill(updates[k], k)
				}
				fl.AggregateFedSGD(params, updates)
			}
			b.ReportMetric(float64(kt*modelFloats*8)/1024, "update-KB")
		})
		b.Run(fmt.Sprintf("streaming/kt=%d", kt), func(b *testing.B) {
			b.ReportAllocs()
			agg := fl.NewFedSGD()
			scratch := tensor.ZerosLike(params)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Begin(params)
				for k := 0; k < kt; k++ {
					fill(scratch, k)
					agg.Fold(scratch)
				}
				agg.Commit(params)
			}
			b.ReportMetric(float64(modelFloats*8)/1024, "update-KB")
		})
	}
}

// BenchmarkSparseWireEncoding measures gob encoding of a CNN-sized update
// at several densities, dense TensorWire vs SparseTensorWire, reporting
// the encoded bytes. Gob already packs a zero float64 into one byte, so
// the sparse win is ~1.5× at 10% density and >5× at DSSGD's θ_u = 0.01
// setting — the wire-B metrics quantify the crossover.
func BenchmarkSparseWireEncoding(b *testing.B) {
	const n = 100000
	rng := tensor.NewRNG(3)
	for _, density := range []float64{1, 0.1, 0.01} {
		src := tensor.New(n)
		step := int(1 / density)
		for i := 0; i < n; i += step {
			src.Data()[i] = rng.Float64()*2 - 1
		}
		ts := []*tensor.Tensor{src}
		b.Run(fmt.Sprintf("dense/density=%v", density), func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(fl.WireFromTensors(ts)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "wire-B")
		})
		b.Run(fmt.Sprintf("sparse/density=%v", density), func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(fl.SparseFromTensors(ts)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "wire-B")
		})
	}
}

// BenchmarkGobTransportRound measures a full TCP round trip of a federated
// round over loopback with gob encoding.
func BenchmarkGobTransportRound(b *testing.B) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 1)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	cfg := fl.RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}
	srv, err := fl.NewRoundServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	agg := fl.NewFedSGD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := fl.RunRemoteClientRound(srv.Addr(), 0, core.NonPrivate{}, ds.Client(0), spec.ModelSpec(), 1, fl.ClientOptions{})
			done <- err
		}()
		if _, err := srv.StreamRound(i, model.Params(), cfg, agg, fl.RoundOptions{Clients: 1}); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetRounds measures full-deployment federated rounds over the
// in-memory simnet fabric — RoundServer on a fabric listener, every cohort
// member a real wire session played by the client mux, virtual time — the substrate the
// fault matrix and every future chaos/scale test stands on, under both
// wire codecs. The null/gob row is rounds/sec of pure fabric + protocol
// overhead; the faulted plans add
// the acceptance scenario's chaos, whose latency costs zero wall time by
// construction; the binary rows measure what the framed codec (see
// DESIGN.md, "Wire codec") buys once gob's per-session reflection and
// type-descriptor retransmission leave the protocol path.
func BenchmarkSimnetRounds(b *testing.B) {
	for _, tc := range []struct{ name, plan, codec string }{
		{"null/gob", "", ""},
		{"null/binary", "", fl.CodecBinary},
		{"faulted/gob", "drop=0.2,crash=2,restart=1,latency=10ms,jitter=5ms", ""},
		{"faulted/binary", "drop=0.2,crash=2,restart=1,latency=10ms,jitter=5ms", fl.CodecBinary},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const rounds = 3
			cfg := core.Config{
				Dataset: "cancer", Method: core.MethodFedCDP,
				K: 8, Kt: 4, Rounds: rounds, LocalIters: 2,
				Sigma: 0.06, Seed: 42, ValExamples: 40, EvalEvery: 100,
				Faults: tc.plan, Codec: tc.codec,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunSimnet(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds*b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkChurn prices the open-world population engine against the
// closed world it generalizes: the same six-round Fed-CDP federation with
// no population clauses (static fast path — global accountant, legacy
// cohort draws), with one-shot arrivals/departures, and under memoryless
// churn (both on the dynamic path: per-round active sets, active-set
// cohort draws, per-user ε ledgers). The closed row is what the open-world
// machinery must not tax (gated end to end by benchmark/'s churn-2k).
func BenchmarkChurn(b *testing.B) {
	for _, tc := range []struct{ name, plan string }{
		{"closed", ""},
		{"events", "join=2@2,leave=2@4"},
		{"churn", "churn=0.25"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const rounds = 6
			cfg := core.Config{
				Dataset: "cancer", Method: core.MethodFedCDP,
				K: 10, Kt: 4, Rounds: rounds, LocalIters: 2,
				Sigma: 0.06, Seed: 42, ValExamples: 40, EvalEvery: 100,
				Population: tc.plan,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds*b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkLedger prices the per-user ε ledger at churn-2k's scale: 2,000
// users over 25 committed rounds, 200 joining at round 5 and 200 leaving at
// round 15, each present user churning out of a round with probability
// 0.05. One op is the whole run as core charges it after training: every
// round, Participate for each active user, then MaxEpsilon. The fedcdp row
// charges a constant q, so users share states by participation count; the
// fedsdp row charges q = kt/active, which changes with the pool every
// round, so histories diverge — the ledger's worst case.
func BenchmarkLedger(b *testing.B) {
	const users, rounds, kt, churn = 2000, 25, 40, 0.05
	rng := rand.New(rand.NewSource(42))
	active := make([][]int, rounds)
	charges := 0
	for r := range active {
		for id := 0; id < users; id++ {
			joined, left := id < users-200 || r >= 5, id < 200 && r >= 15
			if joined && !left && rng.Float64() >= churn {
				active[r] = append(active[r], id)
			}
		}
		charges += len(active[r])
	}
	for _, tc := range []struct {
		name  string
		steps int
		q     func(active int) float64
	}{
		{"fedcdp", 2, func(int) float64 { return 0.005 }},
		{"fedsdp", 1, func(n int) float64 { return float64(kt) / float64(n) }},
	} {
		// run charges the whole run once and returns the time MaxEpsilon took.
		run := func() (maxEps time.Duration) {
			led := accountant.NewLedger(1e-5)
			for _, pool := range active {
				q := tc.q(len(pool))
				for _, id := range pool {
					led.Participate(id, q, 0.06, tc.steps)
				}
				start := time.Now()
				led.MaxEpsilon()
				maxEps += time.Since(start)
			}
			return maxEps
		}
		b.Run(tc.name, func(b *testing.B) {
			run() // the per-step RDP grids are computed once per process
			b.ResetTimer()
			var maxEps time.Duration
			for i := 0; i < b.N; i++ {
				maxEps += run()
			}
			b.ReportMetric(float64((b.Elapsed()-maxEps).Nanoseconds())/float64(b.N*charges), "ns/user-round")
			b.ReportMetric(maxEps.Seconds()*1e6/float64(b.N*rounds), "maxeps-us")
		})
	}
}

// BenchmarkRobustAgg prices the robust aggregation folds against the
// streaming FedSGD mean along the cohort-size axis: the robust rules
// buffer raw updates (O(Kt·model) memory, held across rounds) and compute
// order statistics at Commit — median and trimmed mean select ranks per
// coordinate (trimmed also sums survivors exactly), Krum scores O(Kt²)
// pairwise distances. Each op is one round on one aggregator built outside
// the loop, as the runtimes keep theirs; the trimmed:0.2/kt25 row is
// flat-faulted's shape (a 4,270-parameter model).
func BenchmarkRobustAgg(b *testing.B) {
	type row struct {
		rule    string
		kt, dim int
	}
	var rows []row
	for _, kt := range []int{8, 32} {
		for _, rule := range []string{fl.AggFedSGD, fl.AggMedian, "trimmed:0.34", "krum:2"} {
			rows = append(rows, row{rule, kt, 4096})
		}
	}
	rows = append(rows, row{"trimmed:0.2", 25, 4270})
	for _, r := range rows {
		rng := tensor.Split(42, 9)
		updates := make([][]*tensor.Tensor, r.kt)
		for i := range updates {
			u := tensor.New(r.dim)
			rng.FillNormal(u, 0, 1)
			updates[i] = []*tensor.Tensor{u}
		}
		base := tensor.New(r.dim)
		rng.FillNormal(base, 0, 1)
		b.Run(fmt.Sprintf("%s/kt%d", r.rule, r.kt), func(b *testing.B) {
			params := []*tensor.Tensor{base.Clone()}
			agg, err := fl.NewAggregator(r.rule)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Begin(params)
				for _, u := range updates {
					agg.Fold(u)
				}
				agg.Commit(params)
			}
			b.ReportMetric(float64(r.kt*b.N)/b.Elapsed().Seconds(), "folds/sec")
		})
	}
}

// BenchmarkExactFold prices the exact fold behind the sharded topologies
// (fl.NewExact over fl.ExactVec) at the tree-100k model size: each op is one
// round — Begin, Kt FoldClient calls of a 4,270-parameter update, Commit —
// at an edge's share of a cohort (Kt=32) and a flat server's (Kt=1000).
// ns/addend is the per-coordinate cost of absorbing one float64 exactly.
func BenchmarkExactFold(b *testing.B) {
	const dim = 4270
	rng := tensor.Split(42, 12)
	updates := make([][]*tensor.Tensor, 32)
	for i := range updates {
		u := tensor.New(dim)
		rng.FillNormal(u, 0, 0.06)
		updates[i] = []*tensor.Tensor{u}
	}
	base := tensor.New(dim)
	rng.FillNormal(base, 0, 1)
	for _, kt := range []int{32, 1000} {
		b.Run(fmt.Sprintf("kt%d", kt), func(b *testing.B) {
			params := []*tensor.Tensor{base.Clone()}
			agg, err := fl.NewExact(fl.AggFedSGD)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Begin(params)
				for c := 0; c < kt; c++ {
					agg.FoldClient(c, updates[c%len(updates)], 1)
				}
				agg.Commit(params)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kt*dim), "ns/addend")
		})
	}
}
