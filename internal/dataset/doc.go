// Package dataset provides the synthetic benchmark family that stands in
// for the paper's five datasets (MNIST, CIFAR-10, LFW, Adult,
// Breast-Cancer) and the heterogeneity scenario engine that decides how a
// benchmark is partitioned across a federated client population.
//
// # Synthetic benchmarks
//
// Real datasets are not available offline, so each benchmark is replaced by
// a deterministic generator with the same input shape, class count,
// per-client shard size, batch size and round budget as Table I of the
// paper. Samples are drawn as x = clamp(prototype[class] + noise, 0, 1)
// where prototypes are smooth class-specific patterns; the per-dataset
// noise level is tuned so the *relative difficulty ordering* of the paper's
// benchmarks is preserved (cancer ≈ easiest, CIFAR-10/LFW hardest), and a
// deterministic label-flip rate pins each benchmark's Bayes accuracy at the
// paper's ceiling.
//
// # Scenario engine
//
// A Partitioner (partition.go) assigns each client its shard: size, class
// support, per-index class assignment, and optional per-client label-noise
// rate. Scenarios select partitioners by name — iid (the paper's Table I
// rule and the default), dirichlet (label skew with concentration α),
// pathological (McMahan-style label shards), quantity (power-law shard
// sizes), labelnoise (per-client annotation quality) — via
// Scenario.Partitioner(), and Stats measures the realized heterogeneity.
//
// # Determinism and concurrency
//
// Every sample, shard and label is generated lazily and deterministically
// from the dataset seed: samples from (seed, streamID, index), shards from
// (seed, clientID), per-index class picks from (seed, clientID, index).
// There is no global shuffle and no shared mutable state, so a simulation
// with K=10,000 clients only materializes the shards of clients actually
// sampled in a round, any goroutine can materialize any client in any
// order with identical results, and the streaming runtime's any-order
// folds stay reproducible. Reserved Split label spaces under the dataset
// seed: 1000 prototypes, 2000 samples, 3000–3300 partitioners (see
// partition.go), 4000 base label flips, 4100 label-noise-skew flips.
//
// Datasets and ClientData views are safe for concurrent readers after
// construction; WithPartitioner shares prototypes, so repartitioning an
// existing dataset (e.g. applying a server-published scenario) is cheap.
// Scalar draws — class picks, flip coins — are short tensor.Split streams,
// drawn afresh on every query: a coin alone is tensor.SplitFloat64, and a
// class pick reseeds a pooled generator. Sample tensors cost a draw per
// element, so the dataset keeps those it generated in a bounded cache
// shared across views (cache.go); a cache hit is bit-identical to
// regeneration by construction. Training reads a batch with
// ClientData.BatchInto, straight into its batch matrix.
package dataset
