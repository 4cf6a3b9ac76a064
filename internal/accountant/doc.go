// Package accountant implements privacy accounting for the sampled Gaussian
// mechanism: the moments accountant of Abadi et al. (CCS'16) in its RDP
// formulation (Mironov et al.), plus the closed-form bound of the paper's
// Equation (2). It reproduces Table VI of the paper from parameters alone.
//
// The core computation is the Rényi divergence of the sampled Gaussian
// mechanism at order α ("log moment"), following the reference algorithm in
// TensorFlow Privacy: an exact binomial sum for integer α and a two-sided
// erfc-weighted series for fractional α. RDP composes additively over steps
// and converts to (ε,δ)-DP via ε = rdp + log(1/δ)/(α−1), minimized over a
// grid of orders.
//
// The package is pure computation — deterministic, goroutine-safe for
// distinct Accountant values, and independent of the training stack. Its
// callers are internal/core (which annotates run histories with cumulative
// ε after each round: Fed-CDP composes LocalIters steps per round at the
// instance-level rate q = B·Kt/N, Fed-SDP one step per round at the
// client-level rate Kt/K) and the Table VI experiment driver. Accounting
// depends only on (q, σ, steps, δ) — never on the execution engine, fold
// order, or heterogeneity scenario of the run that spent the budget.
// Because the per-step RDP grid depends only on (q, σ), it is memoized
// across rounds and accountants (rdp.go): repeated accumulation at one
// noise scale is a table lookup, bit-identical to direct computation.
//
// Ledger extends the same accounting to open-world populations: each user
// (Participate) is charged only for committed rounds the user was present
// for, with MaxEpsilon — the worst-exposed user — as the run's published ε
// and MinEpsilon surfacing the exposure spread a single global accountant
// cannot represent. Users with the same charge history share one
// immutable state (RDP vector, steps, ε), created once by the composition
// loop an Accountant runs, so a shared state has a per-user accumulator's
// bits; freed states are recycled, so live states never exceed users + 1.
// Under uniform participation the ledger max is bit-identical to a global
// Accountant, which is what lets open-world runtimes publish it without
// perturbing any closed-world golden. See DESIGN.md, "Open-world
// population".
//
// The conversion term log(1/δ)/(α−1) is evaluated once per δ, and every
// product is rounded before it is added (float64(a*b) + c), so no GOARCH
// fuses an FMA into ε.
package accountant
