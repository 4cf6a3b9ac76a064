package core

import (
	"fmt"
	"runtime"
	"testing"

	"fedcdp/internal/accountant"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
)

// The open-world population engine's standing gate: seeded churn schedules
// must replay bit-identically — final-model digest, per-round participation
// accounting, and the per-user ε ledger — across invocations and
// GOMAXPROCS in every runtime, and the accounting bugs this PR fixes must
// stay fixed (uncommitted rounds charge nothing; ledgers charge realized
// participation only; static populations collapse to the global
// accountant).

// churnBaseConfig is the shared open-world run: six rounds so the join at
// round 2 and the departures at round 4 both have a before and an after,
// plus background churn so clients also leave AND return.
func churnBaseConfig() Config {
	return Config{
		Dataset: "cancer",
		Method:  MethodFedCDP,
		K:       10, Kt: 4, Rounds: 6,
		LocalIters:  2,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 40,
		EvalEvery:   1,
		MinQuorum:   1,
		Population:  "join=2@2,leave=2@4,churn=0.15",
	}
}

// ledgerFingerprint renders a ledger's full per-user state (ids, steps, ε)
// as a comparable string; nil ledgers fingerprint as "none".
func ledgerFingerprint(led *accountant.Ledger) string {
	if led == nil {
		return "none"
	}
	s := ""
	for _, id := range led.Users() {
		eps, _, _ := led.UserEpsilon(id)
		s += fmt.Sprintf("%d:%d:%x;", id, led.Steps(id), eps)
	}
	return s
}

// roundFingerprint renders the deterministic per-round accounting: active
// population, folded, dropped, commit bit and ε.
func roundFingerprint(res *Result) string {
	s := ""
	for _, r := range res.Rounds {
		s += fmt.Sprintf("%d/%d/%d/%v/%x;", r.Active, r.Clients, r.Dropped, r.Committed, r.Epsilon)
	}
	return s
}

// TestChurnReplayInProcess: the in-process runtime replays a churn schedule
// bit-identically across invocations, parallelism settings and GOMAXPROCS.
// (Its agreement with the barrier oracle under churn is pinned at the fl
// level by TestPopulationStreamingBarrierParity.)
func TestChurnReplayInProcess(t *testing.T) {
	take := func(parallelism, maxprocs int) (uint64, string, string) {
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		cfg := churnBaseConfig()
		cfg.Parallelism = parallelism
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return digestTensors(res.Final.Params()), roundFingerprint(res), ledgerFingerprint(res.Ledger)
	}
	d1, r1, l1 := take(0, 0)
	if l1 == "none" {
		t.Fatal("open-world run produced no per-user ledger")
	}
	for _, v := range []struct {
		name                  string
		parallelism, maxprocs int
	}{
		{"replay", 0, 0},
		{"parallelism=1", 1, 0},
		{"parallelism=8", 8, 0},
		{"GOMAXPROCS=2", 0, 2},
	} {
		d, r, l := take(v.parallelism, v.maxprocs)
		if d != d1 || r != r1 || l != l1 {
			t.Fatalf("streaming %s diverges: digest %x/%x rounds %v stats %v ledger %v",
				v.name, d, d1, r == r1, l == l1, l)
		}
	}
}

// TestChurnReplaySimnet: the RPC deployment runtimes. The flat harness
// folds in arrival order (float sums — params are scheduling-dependent by
// design), so it pins the deterministic surface: cohorts, participation
// accounting, wire bytes and the ledger. The hierarchical mux path folds
// exactly and must replay the committed model bit-for-bit too.
func TestChurnReplaySimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("simnet deployments")
	}
	take := func(shards, maxprocs int) (uint64, string, string, int64) {
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		cfg := churnBaseConfig()
		cfg.Shards = shards
		// Fixed-width frames: the flat fold's params are arrival-order
		// floats, and the text codec's variable-width rendering would let
		// that wobble leak into the broadcast byte count.
		cfg.Codec = fl.CodecBinary
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wire int64
		for _, r := range res.Rounds {
			wire += r.WireBytes
		}
		return digestTensors(res.Final.Params()), roundFingerprint(res), ledgerFingerprint(res.Ledger), wire
	}
	// Flat RPC deployment: deterministic accounting, ledger and wire bytes.
	_, r1, l1, w1 := take(0, 0)
	_, r2, l2, w2 := take(0, 2)
	if r1 != r2 || l1 != l2 || w1 != w2 {
		t.Fatalf("flat simnet churn run not reproducible: rounds %v ledger %v wire %d/%d",
			r1 == r2, l1 == l2, w1, w2)
	}
	if l1 == "none" {
		t.Fatal("flat simnet open-world run produced no ledger")
	}
	// Hierarchical mux deployment: everything above plus a bit-exact model.
	dt1, rt1, lt1, wt1 := take(2, 0)
	dt2, rt2, lt2, wt2 := take(2, 2)
	if dt1 != dt2 || rt1 != rt2 || lt1 != lt2 || wt1 != wt2 {
		t.Fatalf("tree simnet churn run not reproducible: digest %x/%x rounds %v ledger %v wire %d/%d",
			dt1, dt2, rt1 == rt2, lt1 == lt2, wt1, wt2)
	}
	// The in-process and deployed runtimes agree on the population they saw
	// and on every user's realized privacy charge.
	cfg := churnBaseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ledgerFingerprint(res.Ledger); got != l1 || got != lt1 {
		t.Fatal("runtimes disagree on the per-user ε ledger under one seed")
	}
	inproc := roundFingerprint(res)
	if inproc != r1 || inproc != rt1 {
		t.Fatalf("runtimes disagree on participation accounting:\nin-process %s\nflat       %s\ntree       %s", inproc, r1, rt1)
	}
	// The dropout coin is the round engine's, so a deployment thins its
	// cohorts exactly as the in-process run does.
	dropout := func(run func(Config) (*Result, error), shards int) (string, int) {
		cfg := churnBaseConfig()
		cfg.DropoutRate, cfg.Shards = 0.3, shards
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cohort := 0
		for _, r := range res.Rounds {
			cohort += r.Clients + r.Dropped
		}
		return roundFingerprint(res), cohort
	}
	di, ni := dropout(Run, 0)
	df, _ := dropout(RunSimnet, 0)
	dt, _ := dropout(RunSimnet, 2)
	if di != df || di != dt {
		t.Fatalf("runtimes disagree under dropout=0.3:\nin-process %s\nflat       %s\ntree       %s", di, df, dt)
	}
	full := 0
	for _, r := range res.Rounds {
		full += r.Clients + r.Dropped
	}
	if ni >= full {
		t.Fatalf("dropout=0.3 removed nobody: %d cohort slots with the coin, %d without", ni, full)
	}
}

// TestChurnStaticPopulationParity: population clauses that bind to a
// closed world (churn=0, no joins/leaves) must change nothing — same
// committed model as the plain run, no ledger, identical global ε. This is
// the static-parity acceptance: Ledger-based accounting may not perturb a
// single closed-world golden.
func TestChurnStaticPopulationParity(t *testing.T) {
	plain := churnBaseConfig()
	plain.Population = ""
	static := churnBaseConfig()
	static.Population = "churn=0.0"
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Ledger != nil || rs.Ledger != nil {
		t.Fatal("closed-world runs must not build a per-user ledger")
	}
	if digestTensors(rp.Final.Params()) != digestTensors(rs.Final.Params()) {
		t.Fatal("churn=0.0 perturbed a closed-world run")
	}
	if roundFingerprint(rp) != roundFingerprint(rs) {
		t.Fatal("churn=0.0 perturbed closed-world accounting")
	}
	for _, r := range rp.Rounds {
		if r.Active != plain.K {
			t.Fatalf("closed-world round reports %d active, want K=%d", r.Active, plain.K)
		}
	}
}

// TestEpsilonChargesOnlyCommittedRounds pins the ε over-charge fix: the
// accountant composes the sampled Gaussian mechanism only for rounds that
// actually committed. Under drop=0.2 with a full-cohort quorum some rounds
// miss quorum and publish nothing — the old unconditional charge reported
// the clean run's ε for them.
func TestEpsilonChargesOnlyCommittedRounds(t *testing.T) {
	cfg := Config{
		Dataset: "cancer",
		Method:  MethodFedCDP,
		K:       10, Kt: 4, Rounds: 8,
		LocalIters:  2,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 40,
		EvalEvery:   1,
		MinQuorum:   4, // any dropped update fails the round
		Faults:      "drop=0.2",
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	committed, uncommitted := 0, 0
	for _, r := range res.Rounds {
		if r.Committed {
			committed++
		} else {
			uncommitted++
		}
	}
	if committed == 0 || uncommitted == 0 {
		t.Fatalf("plan too gentle or too harsh: %d committed / %d uncommitted — the regression needs both", committed, uncommitted)
	}
	// Reconstruct the charge sequence: exactly one composition block per
	// committed round, nothing for uncommitted ones.
	q, _ := instanceLevel.charge(res.Cfg, res.Spec, res.Cfg.K)
	acc := accountant.New(res.Cfg.Delta)
	for i, r := range res.Rounds {
		if r.Committed {
			acc.Accumulate(q, res.Cfg.Sigma, res.Cfg.LocalIters)
		}
		want, _ := acc.Epsilon()
		if r.Epsilon != want {
			t.Fatalf("round %d: ε %v, want %v (charge realized participation only)", i, r.Epsilon, want)
		}
	}
	// The faulted run must spend strictly less than the clean horizon.
	clean := cfg
	clean.Faults = ""
	clean.MinQuorum = 0
	cres, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalEpsilon() >= cres.FinalEpsilon() {
		t.Fatalf("faulted ε %v not below clean ε %v — uncommitted rounds were charged", res.FinalEpsilon(), cres.FinalEpsilon())
	}
}

// TestChurnLedgerMatchesRealizedParticipation: every user's ledger steps
// equal LocalIters × (committed rounds it was active in), the published
// per-round ε is the ledger max, and absent users are never charged.
func TestChurnLedgerMatchesRealizedParticipation(t *testing.T) {
	cfg := churnBaseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger == nil {
		t.Fatal("open-world run produced no ledger")
	}
	plan, err := simnet.ParsePlan(cfg.Population)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = plan.Bind(cfg.Seed, cfg.Rounds, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	pop := fl.PopulationOf(cfg.K, plan)
	sawSpread := false
	for id := 0; id < cfg.K; id++ {
		exposed := 0
		for _, r := range res.Rounds {
			if r.Committed && pop.Active(r.Round, id) {
				exposed++
			}
		}
		if got, want := res.Ledger.Steps(id), exposed*res.Cfg.LocalIters; got != want {
			t.Fatalf("user %d charged %d steps, want %d (%d committed active rounds × L=%d)",
				id, got, want, exposed, res.Cfg.LocalIters)
		}
	}
	maxEps, _, _ := res.Ledger.MaxEpsilon()
	if maxEps != res.FinalEpsilon() {
		t.Fatalf("published ε %v is not the ledger max %v", res.FinalEpsilon(), maxEps)
	}
	minEps, _ := res.Ledger.MinEpsilon()
	if minEps < maxEps {
		sawSpread = true
	}
	if !sawSpread {
		t.Fatal("churn schedule induced no per-user ε spread — the ledger is degenerate")
	}
}
