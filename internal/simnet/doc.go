// Package simnet is a deterministic fault-injection simulation harness for
// the federation runtime: an in-memory, single-process network fabric with
// net.Listener/net.Conn endpoints, a virtual clock, and a seeded fault
// plan.
//
// # Virtual time
//
// The fabric never sleeps. Clock satisfies the fl.Clock interface but
// advances only when an event advances it: delivering a message whose
// virtual stamp lies in the future jumps the clock to that stamp (the
// discrete-event rule), and tests advance it explicitly to fire deadline
// timers. Simulating a 500 ms round-trip therefore costs zero wall time,
// and a test suite sweeping latency distributions runs as fast as its
// compute.
//
// # Pooled frames
//
// A connection's Write copies its argument, as net.Conn requires, into a
// buffer drawn from a pool; the reading end returns the buffer to the pool
// once it has drained it. Duplicated messages are pooled copies too, and
// messages that are never read (behind a cut, or in flight at a close)
// are simply dropped. Steady-state fabric traffic therefore allocates no
// per-message buffers.
//
// # Fault plan
//
// Plan is a pure function from (seed, round, client) — or, for transport
// faults, (seed, round, link, message) — to failure decisions: update
// loss, mid-round client crashes, server restarts between rounds, link
// latency/jitter, message cut/duplication, and asymmetric partitions. See
// ParsePlan for the grammar. Because nothing depends on goroutine timing,
// two runs of the same plan against the same seed inject byte-identical
// failures at any GOMAXPROCS — fault scenarios are reproducible test
// cases, not flakes.
//
// # Adversarial clients
//
// The same grammar declares clients that lie rather than fail:
// "byzantine=n:mode[:param]" corrupts n seeded clients' updates before
// submission (signflip negates, scale:λ multiplies, gauss:σ adds seeded
// Gaussian noise) and "poison=n:rate" gives n seeded clients a
// flipped-label view of their training shard (targeted y→y+1 mod
// classes). Identities are drawn at Bind, draws are keyed by dedicated
// Split labels, and overfull budgets — more attackers than clients, more
// seeded crashes than free (round, client) slots — are a loud Bind error
// rather than a silent truncation, so an attacked run replays
// bit-identically and never under-reports its attack load. See DESIGN.md,
// "Adversarial clients & robust aggregation".
//
// # Open-world population
//
// A third clause family makes the client population itself a scheduled,
// seeded input: "join=n@r" admits n fresh clients at round r, "leave=n@r"
// departs n clients permanently at round r, and "churn=rate" flips a
// seeded per-(round, client) coin so clients sit rounds out and return.
// Joiner and leaver identities are disjoint Bind-time draws on dedicated
// Split labels (17–19); Plan.ClientActive is the pure
// (seed, clientID, round) activity function every runtime consults
// through fl.Population. Event rounds outside [1, rounds) and join+leave
// budgets exceeding the registry are Bind errors. See DESIGN.md,
// "Open-world population".
//
// # Layering
//
// simnet depends only on internal/tensor (for the splittable RNG). The fl
// runtime consumes a Plan through the fl.Plan interface (in-process
// injection, the mux's hostile and churning clients) and the fabric
// through its DialFunc/net.Listener
// seams (RPC injection); core.RunSimnet drives a whole federated
// deployment — server, clients, restarts — over one fabric. See DESIGN.md,
// "Simnet".
package simnet
