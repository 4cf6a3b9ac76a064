// Package dp implements the differential-privacy mechanics used by Fed-CDP
// and Fed-SDP: per-layer L2 clipping with pluggable bound schedules, the
// Gaussian mechanism calibrated to clipping-bound sensitivity, top-k
// gradient compression (the paper's communication-efficient experiments,
// Figure 5), and the fused sanitize pipeline that fuses clip scaling into
// the noise traversal.
//
// # The two noise paths
//
// Sanitize draws from a sequential *tensor.RNG — the original path, still
// what the attack drivers and leakage probes call. The counter path
// (SanitizeCounter/SanitizeCounterFlat/SanitizeCounterLayers and the
// parallel SanitizeCounterPar/SanitizeBatch) draws from tensor.CounterRNG
// streams keyed by (round, client, iteration, example, layer), so noise for
// any slice of any update is a pure function of its coordinates: shards of
// one large update, or whole examples of one mini-batch, are sanitized from
// concurrent goroutines with bit-identical results at every GOMAXPROCS.
//
// # Determinism contracts
//
// Norm reductions are chunked (2048-element sub-sums folded in fixed
// order), so a clipped norm does not depend on how the traversal was
// sharded. SanitizeBatch fans per-example recover+clip+noise over a
// goroutine pool but folds the batch accumulation in example order —
// parallelism changes wall-clock, never results. Compress selects its
// threshold with an O(n) quickselect and keeps exactly total−k entries,
// breaking ties in scan order, so compression is also schedule-independent.
//
// Callers sit one layer up: internal/core's strategies route per-example
// (Fed-CDP) and per-update (Fed-SDP) sanitization through the counter
// path.
package dp
