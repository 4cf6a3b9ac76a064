// Package fl is the federated-learning substrate: a publish-subscribe style
// simulation of a federated server and a (possibly very large) population of
// clients, plus a real TCP deployment of the same rounds. It supplies
// streaming O(model)-memory aggregation (FedSGD / FedAvg /
// example-count-weighted FedAvg folds), per-round client sampling, parallel
// local training on a reusable worker pool, straggler deadlines, quorum
// semantics, and run history collection.
//
// The privacy behaviour of a run is supplied by a Strategy (implemented in
// internal/core: non-private, Fed-SDP, Fed-CDP, Fed-CDP(decay), DSSGD); the
// substrate itself is privacy-agnostic. Client data comes from
// internal/dataset: clients are materialized lazily under the dataset's
// partitioner, so populations of 10,000 clients cost only the Kt shards
// actually sampled each round, under any heterogeneity scenario.
//
// # The round engine
//
// The round protocol exists once. RunWith is the outer loop — validation,
// the schedule horizon, the global model, restarts, the cohort draw from
// the active set, the dropout coin, the evaluation schedule, the history —
// and a RoundRunner is what it hands each cohort to: the in-process
// streaming round (Run), the simnet fabric deployment (core.RunSimnet), the
// TCP server other processes dial into (core.Serve) or the lockstep oracle
// (barrier_test.go). worker.step is the one client step (parameters, the
// per-(seed, round, client) noise key, Strategy.ClientUpdate, Byzantine
// corruption), run by the in-process pool, the one-shot remote client and
// the ClientMux alike; openSession is the one client-side session
// preamble. See DESIGN.md, "Round engine".
//
// # The in-process round and its fold order
//
// Run folds each update into the round's Aggregator the moment it arrives,
// parking out-of-order arrivals in a reorder buffer so commits happen in
// cohort order: a seeded run is a pure function of its configuration —
// including the weighted folds of AggWeighted — whatever the scheduling. A
// strategy that sanitizes at the server (ServerSanitizer) sees each update
// there, just before its fold. The original lockstep round (train the whole cohort,
// materialize every update, fold in cohort order) lives on as the parity
// oracle in barrier_test.go, which pins the two bit-identical under every
// plan family.
//
// Weight-aware aggregators (WeightedFolder) receive each client's local
// example count with the update — carried on UpdateMsg.Weight over the
// wire — so weighted FedAvg follows the same fold order.
//
// # Exact and hierarchical aggregation
//
// Config.Shards ≥ 1 swaps the float folds for ExactAggregator, the flat
// exact fold; an aggregation tree exists only as edge RoundServers
// forwarding partials to a root that absorbs them with FoldPartial (the
// simnet fabric, core.RunSimnet), and the flat fold is its parity oracle:
// sums accumulate in ExactVec, a fixed-point superaccumulator on the
// float64 grid (bit 0 = 2^-1074, two's-complement uint64 limbs, one limb
// window per vector grown on demand), so addition is exact, any grouping
// of a cohort into partials commits the same bits, and each coordinate
// rounds to float64 once at Commit. Edges forward their sums as Partials
// (PartialWire on the wire, an exclusive UpdateMsg encoding); wire scalars
// are held to the accumulator's envelope (ErrExactEnvelope) before any
// storage is sized from them. See exact.go and DESIGN.md, "Hierarchical
// aggregation".
//
// # DP noise and the key schedule
//
// Every Gaussian draw is keyed to (seed, round, client, iteration, example,
// layer, offset) via tensor.CounterRNG (ClientEnv.Noise, ServerNoise) —
// noise is a pure function of those labels, so sanitization parallelizes
// with bit-identical results at any GOMAXPROCS and any arrival order
// (server streams are keyed by cohort position, not arrival).
//
// Reserved Split/CounterRNG label spaces under the root seed: 1 model init,
// 2 retired (a sequential server RNG), 3 cohort sampling, 4 retired (a
// per-client math/rand stream; retired labels are never reused), 5 dropout
// coins, 6 client-side counter noise, 7 server-side counter noise; labels 8–11
// belong to internal/simnet's benign fault coins, 13–16 to its adversarial
// draws (attacker identities, gauss corruption, poison coins), and 17–19
// to its population draws (joiner identities, leaver identities, churn
// coins).
//
// # Open-world populations
//
// Config.Plan's join=n@r, leave=n@r and churn=rate clauses (see Plan) make
// the population open: the Population registry built from it decides, per
// round, which clients exist. ActiveCohort draws cohorts only from the
// round's active set (static populations reproduce the legacy
// SampleCohort/SampleCohortFloyd draws verbatim). No client-side state
// outlives a session, so a client that departs and returns owes nothing to
// the rounds it missed. See DESIGN.md, "Open-world population".
//
// # Fault injection
//
// Config.Plan, the one Plan interface internal/simnet.Plan implements,
// carries deterministic update loss, mid-round client crashes and
// between-round server restarts; nil is the clean run. The plan is
// consulted at fixed decision points (a crashed client's slot resolves
// without training, a dropped update trains and is then lost, a restart
// rebuilds every in-memory server structure from checkpointable state), so
// a faulted seeded run is exactly as reproducible as a clean one.
//
// # Adversarial clients and robust aggregation
//
// The same Plan may also declare hostile clients: Byzantine members
// corrupt their update immediately after ClientUpdate, inside the shared
// client step, and poisoned members train on a flipped-label shard view
// installed by AdversaryShard, which survives scenario Repartition. The
// matching defenses are the robust aggregation rules (robust.go):
// AggMedian, AggTrimmed ("trimmed:β") and AggKrum ("krum:f") buffer raw
// updates (O(Kt·model), held across rounds: the price of robustness) and
// commit order statistics, selected rather than sorted, that are pure
// functions of the update multiset under a total order on every float64,
// NaNs included — bit-identical in any arrival order, at any GOMAXPROCS,
// with TrimmedMean(β=0) equal to the exact mean fold bit-for-bit. Robust rules ignore aggregation weights, and they are
// not grouping-invariant: NewAggregatorFor and validate refuse them on
// any sharded topology. See DESIGN.md, "Adversarial clients & robust
// aggregation".
//
// # Remote deployment
//
// rpc.go carries the same rounds over TCP, in the wire format both ends are
// configured with (codec.go): CodecGob (default) speaks encoding/gob,
// byte-identical to the original protocol and kept as the parity oracle;
// CodecBinary is a versioned, length-prefixed binary codec — magic header,
// tensor geometry sections, raw little-endian float payloads and sparse
// sections. Updates cross the wire exact on both codecs.
// Nothing is negotiated: each end speaks its codec from the first byte, and
// a pair configured with different codecs fails at the first frame with an
// error naming both. Updates ship dense or sparse per update density, with optional
// X25519/AES-GCM channel encryption, concurrent client sessions, explicit
// round-over refusals and update receipts; a session that fails costs its
// round one slot (RoundResult.Failed), never the round. The server publishes its
// RoundConfig — including the heterogeneity Scenario, which remote clients
// apply to their local dataset view — so a federation agrees on one
// configuration without per-client flags. The
// transport is pluggable at both ends (NewRoundServerOn takes any
// net.Listener, ClientOptions.Dial any dialer): real TCP is the
// default, and internal/simnet substitutes an in-memory fabric with
// seeded link faults so entire deployments — server restarts, reconnects,
// duplicate submissions, partitions — run deterministically inside one
// test process. Wire messages that cross a connection are validated
// before use (wire.go) regardless of codec: hostile shapes, lengths,
// truncated or oversized frames and non-finite values error out instead
// of panicking or poisoning the model, and update re-submissions after a
// lost ack are acknowledged but folded only once.
package fl
