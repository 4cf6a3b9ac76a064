// Package core implements the paper's contribution and its baselines as
// pluggable federated-learning strategies:
//
//   - NonPrivate: plain FedSGD local training (the paper's reference model).
//   - FedSDP: Algorithm 1 — per-client update clipping and Gaussian noise at
//     each round, at either the client or the server.
//   - FedCDP: Algorithm 2 — per-example, per-layer clipping and Gaussian
//     noise inside every local iteration, before batch averaging.
//   - Fed-CDP(decay): FedCDP with a decaying clipping bound (Section VI).
//   - DSSGD: distributed selective SGD (Shokri & Shmatikov) — clients share
//     only the largest fraction of their update.
//   - Compressed: communication-efficient wrapper pruning small gradient
//     entries (Figure 5).
//
// Run ties a strategy to the fl substrate and the privacy accountant and is
// the high-level entry point used by the CLIs, examples and benchmarks;
// RunSimnet deploys the same Config over the in-memory simnet fabric, Serve
// as a TCP server other processes dial into, and Checkpoint.Resume continues
// a Run. All four resolve the Config through one mapping (Config.resolve)
// and run fl's one round engine — in process for Run and Resume, through the
// fabric runner (simnet.go) for RunSimnet, the dial-in runner (serve.go) for
// Serve — so every Result has the same History, ε accounting and report. The
// Config is the repository's experiment surface: benchmark and method
// selection, population and round shape, privacy parameters, deadline and
// quorum, and the orthogonal switches —
//
//   - Scenario: the data-heterogeneity partition (iid default, dirichlet,
//     pathological, quantity, labelnoise — see internal/dataset);
//   - Aggregation: FedSGD (default), FedAvg, or example-count-weighted
//     FedAvg (fl.AggWeighted) for quantity-skewed populations.
//
// Local training always runs on the batched GEMM/im2col engine with
// counter-keyed DP noise, and rounds fold as updates arrive in cohort
// order; the per-example trainer (engine_test.go) and the lockstep round
// (internal/fl/barrier_test.go) those replaced survive as test-file
// oracles that pin them. Every configuration is a deterministic seeded
// run. After a run, core annotates
// the history with cumulative privacy spending via internal/accountant, as
// the method table (methods.go) charges each method, and checkpoint.go
// saves/resumes runs with schedules anchored across segments.
package core
