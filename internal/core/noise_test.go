package core

import (
	"math"
	"runtime"
	"testing"

	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// Tests for the counter-based DP noise: seeded goldens pinning its output,
// execution-engine parity, and scheduling invariance.

// digestTensors folds every element's bit pattern through FNV-1a: any
// single-bit change in any element changes the digest, making it a compact
// golden for "bit-for-bit identical" assertions.
func digestTensors(ts []*tensor.Tensor) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, t := range ts {
		for _, v := range t.Data() {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// TestNoiseEngineExecutionParity extends engine_test.go's parity to every
// Fed-CDP sanitizer variant, flat clipping included: the per-example
// reference path and the parallel batched pipeline must produce the same
// update.
func TestNoiseEngineExecutionParity(t *testing.T) {
	for _, tc := range []struct {
		ds    string
		strat fl.Strategy
	}{
		{"mnist", NewFedCDP(4, 0.01)},
		{"cancer", NewFedCDPDecay(6, 2, 0.01)},
		{"cancer", FedCDP{Clip: dp.FixedClip{C: 4}, Sigma: 0.01, FlatClip: true}},
	} {
		checkEngineParity(t, tc.ds, tc.strat, 3)
	}
}

// TestNoiseEngineGOMAXPROCSInvariance runs the same Fed-CDP simulation at
// worker counts 1 and 8 (both goroutine parallelism knobs: the client pool
// and the sanitize fan-out) and requires bit-identical final parameters —
// the acceptance property of the counter engine.
func TestNoiseEngineGOMAXPROCSInvariance(t *testing.T) {
	run := func(parallelism, gomaxprocs int) uint64 {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		res, err := Run(Config{
			Dataset: "cancer", Method: MethodFedCDP,
			K: 8, Kt: 4, Rounds: 3, LocalIters: 3,
			Sigma: 0.05, Seed: 11, ValExamples: 20, EvalEvery: 100,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return digestTensors(res.Final.Params())
	}
	base := run(1, 1)
	for _, tc := range []struct{ par, procs int }{{4, 1}, {1, 8}, {4, 8}} {
		if got := run(tc.par, tc.procs); got != base {
			t.Fatalf("final params differ at parallelism=%d GOMAXPROCS=%d: %x vs %x",
				tc.par, tc.procs, got, base)
		}
	}
}

// TestNoiseEngineGolden pins seeded runs to hardcoded digests, one per
// strategy family. These fail if the key schedule, the ziggurat tables, the
// fused kernels or the fold order change in any way.
func TestNoiseEngineGolden(t *testing.T) {
	golden := map[string]uint64{
		MethodFedCDP:      0xb43b0f1a3a2caca8,
		MethodFedCDPDecay: 0x8e65941158f4b5fe,
		MethodFedSDP:      0x7e43afcf6d6cedff,
		MethodFedSDPSrv:   0x893a963a33779689,
	}
	for method, want := range golden {
		res, err := Run(Config{
			Dataset: "cancer", Method: method,
			K: 6, Kt: 3, Rounds: 2, LocalIters: 3,
			Sigma: 0.05, Seed: 17, ValExamples: 20, EvalEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := digestTensors(res.Final.Params()); got != want {
			t.Errorf("%s: counter-engine golden digest = %#x, want %#x", method, got, want)
		}
	}
}

// TestConvGolden pins a seeded MNIST CNN run under Fed-CDP(decay) — the
// paper's own setting — at GOMAXPROCS 1 and 4. The cancer goldens above run
// dense layers only; this one fails if any bit of the conv path changes:
// the patch matrix (tensor.Im2Col) and its adjoint, the GEMM strips the
// conv layers run on, or the per-example weight gradients.
func TestConvGolden(t *testing.T) {
	const want = 0x5f12a7c5922b3d37
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Run(Config{
			Dataset: "mnist", Method: MethodFedCDPDecay,
			K: 4, Kt: 2, Rounds: 2, LocalIters: 3,
			Sigma: 0.05, Seed: 29, ValExamples: 20, EvalEvery: 100,
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestTensors(res.Final.Params()); got != want {
			t.Errorf("GOMAXPROCS %d: conv golden digest = %#x, want %#x", procs, got, want)
		}
	}
}
