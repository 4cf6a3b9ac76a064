// Package nn is a small, from-scratch neural-network library: dense and
// convolutional layers, pooling, smooth and piecewise-linear activations, a
// softmax cross-entropy loss, SGD, and gob model serialization. It sits
// between internal/tensor (which supplies the GEMM/im2col kernels and
// scratch arenas) and internal/fl (which clones models into per-worker
// slots for federated local training).
//
// # Execution engines
//
// Two execution paths share each layer's parameters. The per-example
// reference path (Forward/Backward) processes one example at a time and
// accumulates parameter gradients into the layer's gradient buffers — after
// one example's backward pass the buffers *are* that example's gradient,
// the execution model per-example differential privacy (Fed-CDP) is defined
// against. The batched engine (ForwardBatch/BackwardBatch on every Layer, see
// batch.go) processes whole mini-batches through GEMM and im2col+GEMM while
// still recovering every example's parameter gradient from the batch
// buffers (ExampleGrads); parity tests pin it to the reference path at
// ≤1e-9. BatchPass runs forward+backward in one call and is the entry the
// DP sanitize pipeline (internal/dp.SanitizeBatch) builds on; BatchPassOn
// is the same pass over a batch matrix the caller filled in place.
//
// # Concurrency and determinism
//
// Layers are stateful between Forward and Backward (cached activations), so
// a model instance must not be shared across goroutines; use Model.Clone or
// build one model per worker and reset it with SetParams. After a
// BatchPass, ExampleGrads(i) for distinct i read disjoint slices of the
// batch buffers and may be consumed from concurrent goroutines, which is
// what lets the DP pipeline fan per-example clip+noise over a pool; the
// views they read are built by the batch pass, never by them. Given
// identical parameters and inputs, both engines are deterministic at any
// GOMAXPROCS; they differ from each other only by float rounding. Federated
// training (internal/core) always runs the batched engine; the per-example
// path serves attacks, leakage probes and the parity oracle.
package nn
