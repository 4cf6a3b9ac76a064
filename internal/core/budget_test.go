package core

import (
	"runtime"
	"testing"

	"fedcdp/internal/tensor"
)

// TestCPUBudgetDeployment runs a cnn-inproc-shaped deployment — MNIST CNN,
// Fed-CDP(decay), in process, batches of 5 — at GOMAXPROCS 1, 2 and 4, each
// with as many client workers as cores and with twice as many. Whether a
// GEMM or a sanitize pass forked helpers depends on how many workers held
// the CPU budget at that instant; the model must not, and every worker and
// helper must have left the budget when the run returns.
func TestCPUBudgetDeployment(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{procs, 2 * procs} {
			runtime.GOMAXPROCS(procs)
			res, err := Run(Config{
				Dataset: "mnist", Method: MethodFedCDPDecay,
				K: 12, Kt: 6, Rounds: 2, LocalIters: 2, BatchSize: 5,
				Sigma: 0.06, Seed: 42, ValExamples: 20, EvalEvery: 100,
				Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := tensor.Busy(); n != 0 {
				t.Fatalf("GOMAXPROCS %d, %d workers: %d goroutines left in the CPU budget", procs, workers, n)
			}
			got := digestTensors(res.Final.Params())
			if want == 0 {
				want = got
			} else if got != want {
				t.Fatalf("GOMAXPROCS %d, %d workers: model digest %#x, want %#x (GOMAXPROCS 1, 1 worker)", procs, workers, got, want)
			}
		}
	}
}
